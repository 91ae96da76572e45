-- TPC-H Q2: minimum-cost supplier. Placeholders are filled by src/templates.rs.
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
FROM part
JOIN partsupp ON p_partkey = ps_partkey
JOIN supplier ON ps_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE p_size = {SIZE}
  AND p_type LIKE '%{TYPE}'
  AND r_name = '{REGION}'
  AND ps_supplycost = (
    SELECT min(ps_supplycost) AS min_cost
    FROM partsupp
    JOIN supplier ON ps_suppkey = s_suppkey
    JOIN nation ON s_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    WHERE r_name = '{REGION}' AND ps_partkey = p_partkey
  )
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
LIMIT 100
