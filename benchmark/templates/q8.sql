-- TPC-H Q8: national market share. Placeholders are filled by src/templates.rs.
SELECT
  extract(year FROM o_orderdate) AS o_year,
  sum(CASE WHEN n2.n_name = '{NATION}'
      THEN l_extendedprice * (1.00 - l_discount) ELSE 0.00 END)
    / sum(l_extendedprice * (1.00 - l_discount)) AS mkt_share
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation n1 ON c_nationkey = n1.n_nationkey
JOIN region ON n1.n_regionkey = r_regionkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation n2 ON s_nationkey = n2.n_nationkey
JOIN part ON p_partkey = l_partkey
WHERE p_type = '{TYPE}'
  AND o_orderdate >= DATE '1995-01-01'
  AND o_orderdate <= DATE '1996-12-31'
  AND r_name = '{REGION}'
GROUP BY o_year
ORDER BY o_year
