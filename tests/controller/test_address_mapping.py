"""AddressMapper.decode_into against Organization.decode."""

from hypothesis import given, settings, strategies as st

from repro.controller.address_mapping import AddressMapper
from repro.controller.request import Request, RequestType
from repro.dram.organization import _MAPPINGS, Organization

FIELDS = ("channel", "rank", "bank", "row", "column")


@given(st.sampled_from(sorted(_MAPPINGS)),
       st.sampled_from((1, 2)), st.sampled_from((1, 2, 4)),
       st.sampled_from((4, 8)), st.sampled_from((16, 4096)),
       st.one_of(st.integers(0, 1 << 20), st.integers(0, 1 << 40)))
@settings(max_examples=300)
def test_decode_into_fills_exactly_the_decoded_fields(
        mapping, channels, ranks, banks, rows, line):
    """Every registered mapping, including lines beyond the modelled
    capacity (which wrap)."""
    org = Organization(channels=channels, ranks=ranks, banks=banks,
                       rows=rows, columns=128, mapping=mapping)
    request = Request(line, RequestType.READ, 0)
    AddressMapper(org).decode_into(request)
    decoded = org.decode(line)
    assert tuple(getattr(request, name) for name in FIELDS) == \
        decoded.as_tuple()
