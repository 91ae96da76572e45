-- TPC-H Q11: important stock identification. Placeholders are filled by src/templates.rs.
WITH gps AS (
  SELECT *
  FROM partsupp
  JOIN supplier ON ps_suppkey = s_suppkey
  JOIN nation ON s_nationkey = n_nationkey
  WHERE n_name = '{NATION}'
)
SELECT ps_partkey, sum(ps_supplycost * ps_availqty) AS value
FROM gps
GROUP BY ps_partkey
HAVING value > (SELECT sum(ps_supplycost * ps_availqty) * 0.0001 AS threshold FROM gps)
ORDER BY value DESC
