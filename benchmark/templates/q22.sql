-- TPC-H Q22: global sales opportunity. Placeholders are filled by src/templates.rs.
SELECT
  substring(c_phone, 1, 2) AS cntrycode,
  count(*) AS numcust,
  sum(c_acctbal) AS totacctbal
FROM customer
WHERE substring(c_phone, 1, 2) IN ({CODES})
  AND NOT EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey)
  AND c_acctbal > (
    SELECT avg(c_acctbal) AS avg_bal
    FROM customer
    WHERE c_acctbal > 0.00
      AND substring(c_phone, 1, 2) IN ({CODES})
  )
GROUP BY cntrycode
ORDER BY cntrycode
