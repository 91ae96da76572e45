-- TPC-H Q17: small-quantity-order revenue. Placeholders are filled by src/templates.rs.
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
FROM part
JOIN lineitem ON p_partkey = l_partkey
WHERE p_brand = '{BRAND}'
  AND p_container = '{CONTAINER}'
  AND l_quantity < (
    SELECT 0.2 * avg(l_quantity) AS threshold
    FROM lineitem
    WHERE l_partkey = p_partkey
  )
