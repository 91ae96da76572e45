-- TPC-H Q19: discounted revenue. Placeholders are filled by src/templates.rs.
SELECT sum(l_extendedprice * (1.00 - l_discount)) AS revenue
FROM lineitem
JOIN part ON l_partkey = p_partkey
WHERE l_shipmode IN ('AIR', 'REG AIR')
  AND l_shipinstruct = 'DELIVER IN PERSON'
  AND ((p_brand = '{BRAND1}'
        AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
        AND l_quantity >= {QUANTITY1_LO} AND l_quantity <= {QUANTITY1_HI}
        AND p_size BETWEEN 1 AND 5)
    OR (p_brand = '{BRAND2}'
        AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
        AND l_quantity >= {QUANTITY2_LO} AND l_quantity <= {QUANTITY2_HI}
        AND p_size BETWEEN 1 AND 10)
    OR (p_brand = '{BRAND3}'
        AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
        AND l_quantity >= {QUANTITY3_LO} AND l_quantity <= {QUANTITY3_HI}
        AND p_size BETWEEN 1 AND 15))
