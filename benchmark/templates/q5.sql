-- TPC-H Q5: local supplier volume. Placeholders are filled by src/templates.rs.
SELECT n_name, sum(l_extendedprice * (1.00 - l_discount)) AS revenue
FROM region
JOIN nation ON n_regionkey = r_regionkey
JOIN supplier ON s_nationkey = n_nationkey
JOIN lineitem ON l_suppkey = s_suppkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey AND c_nationkey = s_nationkey
WHERE r_name = '{REGION}'
  AND o_orderdate >= DATE '{DATE1}'
  AND o_orderdate < DATE '{DATE2}'
GROUP BY n_name
ORDER BY revenue DESC
