-- TPC-H Q6: forecasting revenue change (the paper's Fig. Placeholders are filled by src/templates.rs.
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '{DATE1}'
  AND l_shipdate < DATE '{DATE2}'
  AND l_discount BETWEEN {DISCOUNT_LO} AND {DISCOUNT_HI}
  AND l_quantity < {QUANTITY}
