"""`rational.dumps`, the CLI's JSON encoder: the bytes of
`json.dumps(jsonable(value), sort_keys=True, indent=2)`, with each object
that has `to_json` encoded once per depth."""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from powmon import FinSet
from powmon.cli import main
from powmon.decompose import Decomposition, set_factorizations
from powmon.puiseux import parse_monoid
from powmon.rational import Record, dumps, jsonable


def old_dumps(value) -> str:
    return json.dumps(jsonable(value), sort_keys=True, indent=2)


class _Pair(Record):
    left: object
    right: object = None


SHARED = FinSet([0, Fraction(1, 2), 3])  # one object, met at several depths

strings = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", '\\"', "\x00", "\n\t\x1f", "\x7f", "é", "∑", "😀", "a/b"]),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**30, 10**30),
    strings,
    st.builds(Fraction, st.integers(0, 99), st.integers(1, 12)),
    st.lists(st.builds(Fraction, st.integers(0, 20), st.integers(1, 4)),
             min_size=1, max_size=4).map(FinSet),
    st.just(SHARED),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(-3, 3), strings), children, max_size=4),
        st.builds(_Pair, children, children),
    ),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(values)
@example([])
@example({})
@example(((), {}, [[]]))
@example({1: "int key", "1": "str key", "b": True, "a": None})
@example([SHARED, [SHARED], {"at depth 2": SHARED}, _Pair(SHARED, (SHARED,))])
@example(Decomposition(FinSet([0, 1]), FinSet([0, Fraction(1, 3)])))
def test_dumps_writes_the_bytes_of_the_indented_stdlib_encoder(value):
    assert dumps(value) == old_dumps(value)


def _factorize_set_payload(monoid_text: str, set_text: str, restricted: bool) -> dict:
    """The payload `factorize-set --json` prints, built as the CLI builds it."""
    monoid = parse_monoid(monoid_text)
    b = FinSet.parse(set_text)
    enum = set_factorizations(b, monoid, restricted=restricted)
    return {"command": "factorize-set", "monoid": monoid, "set": b, "restricted": restricted,
            "factorizations": [tuple(z.expand()) for z in enum.items],
            "lengths": sorted(enum.lengths()), "partial": not enum.exhaustive}


def test_factorize_set_json_is_the_old_formula(capsys):
    for monoid, text, restricted in (("1", "{" + ",".join(map(str, range(13))) + "}", True),
                                     ("1/2,1/3", "{0,1/2,1,3/2,2}", False)):
        flags = ["--restricted"] if restricted else []
        assert main(["factorize-set", "--monoid", monoid, *flags, "--json", text]) == 0
        out = capsys.readouterr().out
        assert len(json.loads(out)["factorizations"]) > 1
        assert out == old_dumps(_factorize_set_payload(monoid, text, restricted)) + "\n"


def test_each_distinct_atom_is_encoded_once(capsys, monkeypatch):
    calls = []
    to_json = FinSet.to_json

    def counted(self):
        calls.append(self)
        return to_json(self)

    monkeypatch.setattr(FinSet, "to_json", counted)
    text = "{" + ",".join(map(str, range(12))) + "}"
    assert main(["factorize-set", "--monoid", "1", "--restricted", "--json", text]) == 0
    payload = json.loads(capsys.readouterr().out)
    atoms = {tuple(atom) for z in payload["factorizations"] for atom in z}
    places = sum(len(z) for z in payload["factorizations"])
    assert len(payload["factorizations"]) == 986 and places > 4 * len(atoms)
    assert len(calls) == len(atoms) + 1  # and one for the set itself


class _Fresh(str):
    """A string whose `to_json` gives its text, as the stdlib encoder writes it."""

    def to_json(self):
        return str(self)


class _Maker:
    """Encodes to freshly built objects with `to_json`, freed once encoded."""

    def __init__(self, n: int):
        self.n = n

    def to_json(self):
        return [_Fresh(f"{self.n:06d}-{k}") for k in range(3)]


def test_ids_of_objects_freed_while_encoding_are_not_reused():
    # each maker's fresh strings die with its list, so a memo that did not
    # keep them alive would hand their ids, and their strings, to the next
    value = {"makers": [_Maker(n) for n in range(2000)], "nested": [[_Maker(7)]]}
    assert dumps(value) == old_dumps(value)
