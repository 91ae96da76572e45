-- TPC-H Q16: parts/supplier relationship. Placeholders are filled by src/templates.rs.
SELECT p_brand, p_type, p_size, count(DISTINCT ps_suppkey) AS supplier_cnt
FROM part
JOIN partsupp ON p_partkey = ps_partkey
WHERE p_brand <> '{BRAND}'
  AND p_type NOT LIKE '{TYPE}%'
  AND p_size IN ({SIZES})
  AND ps_suppkey NOT IN (
    SELECT s_suppkey FROM supplier
    WHERE s_comment LIKE '%Customer%Complaints%'
  )
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
