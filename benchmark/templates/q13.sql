-- TPC-H Q13: customer distribution. Placeholders are filled by src/templates.rs.
WITH per_cust AS (
  SELECT c_custkey, count(o_orderkey) AS c_count
  FROM customer
  LEFT JOIN orders
    ON c_custkey = o_custkey AND o_comment NOT LIKE '%{WORD1}%{WORD2}%'
  GROUP BY c_custkey
)
SELECT c_count, count(*) AS custdist
FROM per_cust
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
