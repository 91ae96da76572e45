-- TPC-H Q10: returned item reporting. Placeholders are filled by src/templates.rs.
SELECT
  c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment,
  sum(l_extendedprice * (1.00 - l_discount)) AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON o_orderkey = l_orderkey
JOIN nation ON c_nationkey = n_nationkey
WHERE o_orderdate >= DATE '{DATE1}'
  AND o_orderdate < DATE '{DATE2}'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
ORDER BY revenue DESC
LIMIT 20
