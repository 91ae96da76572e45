-- TPC-H Q18: large volume customers. Placeholders are filled by src/templates.rs.
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       sum(l_quantity) AS sum_qty
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON o_orderkey = l_orderkey
WHERE o_orderkey IN (
  SELECT l_orderkey FROM lineitem
  GROUP BY l_orderkey
  HAVING sum(l_quantity) > {QUANTITY}
)
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100
