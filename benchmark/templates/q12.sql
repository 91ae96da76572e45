-- TPC-H Q12: shipping modes and order priority (the paper's Fig. Placeholders are filled by src/templates.rs.
SELECT
  l_shipmode,
  sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END)
    AS high_line_count,
  sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END)
    AS low_line_count
FROM orders
JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_receiptdate >= DATE '{DATE1}'
  AND l_receiptdate < DATE '{DATE2}'
  AND l_shipmode IN ('{SHIPMODE1}', '{SHIPMODE2}')
  AND l_shipdate < l_commitdate
  AND l_commitdate < l_receiptdate
GROUP BY l_shipmode
ORDER BY l_shipmode
