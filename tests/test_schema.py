"""Array schema declarations and the SciDB-syntax parser."""

import pytest

from repro.arrays.schema import (
    ArraySchema,
    AttributeSpec,
    DimensionSpec,
    parse_schema,
)
from repro.errors import SchemaError


class TestAttributeSpec:
    def test_dtype_normalization(self):
        assert AttributeSpec("x", "float").dtype == "float64"
        assert AttributeSpec("x", "double").dtype == "float64"
        assert AttributeSpec("x", "int").dtype == "int64"
        assert AttributeSpec("x", "char").dtype == "uint8"
        assert AttributeSpec("x", "string").dtype == "object"

    def test_itemsize(self):
        assert AttributeSpec("x", "int32").itemsize == 4
        assert AttributeSpec("x", "float64").itemsize == 8
        assert AttributeSpec("x", "string").itemsize == 16

    def test_bad_name(self):
        with pytest.raises(SchemaError):
            AttributeSpec("9bad", "int32")

    def test_bad_dtype(self):
        with pytest.raises(SchemaError):
            AttributeSpec("x", "quaternion")


class TestDimensionSpec:
    def test_bounded(self):
        d = DimensionSpec("x", 1, 4, 2)
        assert d.bounded
        assert d.extent == 4
        assert d.chunk_count == 2

    def test_unbounded(self):
        d = DimensionSpec("time", 0, None, 1440)
        assert not d.bounded
        assert d.extent is None
        assert d.chunk_count is None

    def test_chunk_of(self):
        d = DimensionSpec("x", 1, 4, 2)
        assert d.chunk_of(1) == 0
        assert d.chunk_of(2) == 0
        assert d.chunk_of(3) == 1
        assert d.chunk_of(4) == 1

    def test_chunk_of_negative_start(self):
        d = DimensionSpec("lon", -180, 180, 12)
        assert d.chunk_of(-180) == 0
        assert d.chunk_of(-169) == 0
        assert d.chunk_of(-168) == 1
        assert d.chunk_of(180) == 30

    def test_chunk_bounds(self):
        d = DimensionSpec("x", 1, 4, 2)
        assert d.chunk_low(0) == 1
        assert d.chunk_high(0) == 2
        assert d.chunk_high(1) == 4  # clamped to declared end

    def test_out_of_range_coordinate(self):
        d = DimensionSpec("x", 1, 4, 2)
        with pytest.raises(SchemaError):
            d.chunk_of(0)
        with pytest.raises(SchemaError):
            d.chunk_of(5)

    def test_bad_interval(self):
        with pytest.raises(SchemaError):
            DimensionSpec("x", 0, 4, 0)

    def test_inverted_range(self):
        with pytest.raises(SchemaError):
            DimensionSpec("x", 5, 4, 2)


class TestParser:
    def test_paper_example(self, tiny_schema):
        assert tiny_schema.name == "A"
        assert tiny_schema.attribute_names == ("i", "j")
        assert tiny_schema.dimension("x").chunk_interval == 2
        assert tiny_schema.attribute("j").dtype == "float64"

    def test_comma_form_with_unbounded(self):
        s = parse_schema(
            "Band<v:double>[time=0,*,1440, longitude=-180,180,12]"
        )
        assert s.dimension("time").end is None
        assert s.dimension("time").chunk_interval == 1440
        assert s.dimension("longitude").start == -180
        assert s.dimension("longitude").end == 180

    def test_colon_form_with_unbounded(self):
        s = parse_schema("T<v:int32>[t=0:*,100]")
        assert s.dimension("t").end is None

    def test_roundtrip_through_declaration(self, tiny_schema):
        text = tiny_schema.declaration()
        again = parse_schema(text)
        assert again.declaration() == text

    def test_modis_band_schema(self):
        from repro.workloads.modis import BAND_SCHEMA_TEXT

        s = parse_schema(BAND_SCHEMA_TEXT.format(name="band1"))
        assert s.ndim == 3
        assert len(s.attributes) == 7
        assert s.dimension("latitude").chunk_count == 16

    def test_ais_broadcast_schema(self):
        from repro.workloads.ais import BROADCAST_SCHEMA_TEXT

        s = parse_schema(BROADCAST_SCHEMA_TEXT)
        assert s.ndim == 3
        assert s.attribute("receiver_id").dtype == "object"
        assert s.dimension("longitude").chunk_count == 29
        assert s.dimension("latitude").chunk_count == 23

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "A[x=1:4,2]",
            "A<i:int32>",
            "A<>[x=1:4,2]",
            "A<i:int32>[]",
            "A<i>[x=1:4,2]",
            "A<i:int32>[x=1..4,2]",
            "A<i:int32>[x]",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SchemaError):
            parse_schema(bad)


class TestSchemaChunkMath:
    def test_chunk_of_cell(self, tiny_schema):
        assert tiny_schema.chunk_of((1, 1)) == (0, 0)
        assert tiny_schema.chunk_of((4, 4)) == (1, 1)
        assert tiny_schema.chunk_of((2, 3)) == (0, 1)

    def test_chunk_box(self, tiny_schema):
        box = tiny_schema.chunk_box((0, 0))
        assert box.lo == (1, 1)
        assert box.hi == (3, 3)

    def test_chunk_box_clamped_at_edge(self):
        s = parse_schema("B<v:int32>[x=0:4,2]")  # extent 5, chunks 3
        assert s.chunk_box((2,)).hi == (5,)

    def test_cell_width(self, tiny_schema):
        assert tiny_schema.cell_width_bytes == 4 + 8

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            ArraySchema(
                "A",
                (DimensionSpec("x", 0, 4, 2),),
                (AttributeSpec("x", "int32"),),
            )

    def test_needs_dimension_and_attribute(self):
        with pytest.raises(SchemaError):
            ArraySchema("A", (), (AttributeSpec("i", "int32"),))
        with pytest.raises(SchemaError):
            ArraySchema("A", (DimensionSpec("x", 0, 4, 2),), ())

    def test_dimension_index(self, tiny_schema):
        assert tiny_schema.dimension_index("y") == 1
        with pytest.raises(SchemaError):
            tiny_schema.dimension_index("z")
