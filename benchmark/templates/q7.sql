-- TPC-H Q7: volume shipping between France and Germany. Placeholders are filled by src/templates.rs.
SELECT
  n1.n_name AS supp_nation,
  n2.n_name AS cust_nation,
  extract(year FROM l_shipdate) AS l_year,
  sum(l_extendedprice * (1.00 - l_discount)) AS revenue
FROM nation n1
JOIN supplier ON s_nationkey = n1.n_nationkey
JOIN lineitem ON l_suppkey = s_suppkey
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation n2 ON c_nationkey = n2.n_nationkey
WHERE l_shipdate >= DATE '1995-01-01'
  AND l_shipdate <= DATE '1996-12-31'
  AND ((n1.n_name = '{NATION1}' AND n2.n_name = '{NATION2}')
    OR (n1.n_name = '{NATION2}' AND n2.n_name = '{NATION1}'))
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
