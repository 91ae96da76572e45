-- TPC-H Q21: suppliers who kept orders waiting. Placeholders are filled by src/templates.rs.
SELECT s_name, count(*) AS numwait
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN lineitem l1 ON s_suppkey = l1.l_suppkey
JOIN orders ON l1.l_orderkey = o_orderkey
WHERE n_name = '{NATION}'
  AND o_orderstatus = 'F'
  AND l1.l_receiptdate > l1.l_commitdate
  AND EXISTS (
    SELECT * FROM lineitem l2
    WHERE l2.l_orderkey = l1.l_orderkey AND l2.l_suppkey <> l1.l_suppkey
  )
  AND NOT EXISTS (
    SELECT * FROM lineitem l3
    WHERE l3.l_orderkey = l1.l_orderkey
      AND l3.l_suppkey <> l1.l_suppkey
      AND l3.l_receiptdate > l3.l_commitdate
  )
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100
