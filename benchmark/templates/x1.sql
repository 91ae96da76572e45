-- X1: row export (not TPC-H): ships a few thousand rows over the wire. Placeholders are filled by src/templates.rs.
SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_shipdate, l_shipmode
FROM lineitem
WHERE l_shipdate >= DATE '{DATE1}'
  AND l_shipdate < DATE '{DATE2}'
