-- TPC-H Q15: top supplier. Placeholders are filled by src/templates.rs.
WITH revenue AS (
  SELECT l_suppkey, sum(l_extendedprice * (1.00 - l_discount)) AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= DATE '{DATE1}'
    AND l_shipdate < DATE '{DATE2}'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier
JOIN revenue ON s_suppkey = l_suppkey
WHERE total_revenue = (SELECT max(total_revenue) AS max_rev FROM revenue)
ORDER BY s_suppkey
