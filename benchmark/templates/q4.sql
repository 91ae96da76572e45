-- TPC-H Q4: order priority checking. Placeholders are filled by src/templates.rs.
SELECT o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= DATE '{DATE1}'
  AND o_orderdate < DATE '{DATE2}'
  AND EXISTS (
    SELECT * FROM lineitem
    WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate
  )
GROUP BY o_orderpriority
ORDER BY o_orderpriority
