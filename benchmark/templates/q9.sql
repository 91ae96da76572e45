-- TPC-H Q9: product type profit measure. Placeholders are filled by src/templates.rs.
SELECT
  n_name AS nation,
  extract(year FROM o_orderdate) AS o_year,
  sum(l_extendedprice * (1.00 - l_discount) - ps_supplycost * l_quantity) AS sum_profit
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN partsupp ON ps_suppkey = l_suppkey AND ps_partkey = l_partkey
JOIN part ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON s_nationkey = n_nationkey
WHERE p_name LIKE '%{COLOR}%'
GROUP BY nation, o_year
ORDER BY nation, o_year DESC
