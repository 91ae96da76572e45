-- TPC-H Q3: shipping priority. Placeholders are filled by src/templates.rs.
SELECT
  l_orderkey,
  sum(l_extendedprice * (1.00 - l_discount)) AS revenue,
  o_orderdate,
  o_shippriority
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON o_orderkey = l_orderkey
WHERE c_mktsegment = '{SEGMENT}'
  AND o_orderdate < DATE '{DATE}'
  AND l_shipdate > DATE '{DATE}'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10
