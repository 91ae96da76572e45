-- TPC-H Q20: potential part promotion. Placeholders are filled by src/templates.rs.
SELECT s_name, s_address
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
WHERE n_name = '{NATION}'
  AND s_suppkey IN (
    SELECT ps_suppkey FROM partsupp
    WHERE ps_partkey IN (
        SELECT p_partkey FROM part WHERE p_name LIKE '{COLOR}%'
      )
      AND ps_availqty > (
        SELECT 0.5 * sum(l_quantity) AS half_shipped
        FROM lineitem
        WHERE l_partkey = ps_partkey
          AND l_suppkey = ps_suppkey
          AND l_shipdate >= DATE '{DATE1}'
          AND l_shipdate < DATE '{DATE2}'
      )
  )
ORDER BY s_name
