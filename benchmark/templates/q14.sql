-- TPC-H Q14: promotion effect. Placeholders are filled by src/templates.rs.
SELECT
  100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
               THEN l_extendedprice * (1.00 - l_discount) ELSE 0.00 END)
    / sum(l_extendedprice * (1.00 - l_discount)) AS promo_revenue
FROM lineitem
JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= DATE '{DATE1}'
  AND l_shipdate < DATE '{DATE2}'
