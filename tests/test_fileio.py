import errno
import json
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from echtoric import (DomainError, LimitError, ToricDomain, canonical_json,
                      digest_bytes, digest_file, domain_from_json,
                      domain_to_json, load_domain, rational, read_domain,
                      save_domain)
from echtoric.fileio import _overwrite, ratio_text

F = Fraction


def test_parse_rational():
    # coordinates in domain files are parsed by geometry.rational; its
    # errors are DomainErrors, which load_domain reports
    assert rational("2/3") == F(2, 3)
    assert rational("-7/2") == F(-7, 2)
    assert rational("10") == 10
    assert rational(5) == 5
    for bad in ("1.5", "2 / 3", "a/b", "1/0", "", "2/3/4", 1.5, True, None):
        with pytest.raises(DomainError):
            rational(bad)
    with pytest.raises(DomainError):
        domain_from_json({"type": "concave",
                          "boundary": [["0", "1.5"], ["1", "0"]]})


def test_rational_str_roundtrip():
    for v in (F(2, 3), F(-7, 2), F(4), F(0)):
        assert rational(str(v)) == v
    assert str(F(10, 5)) == "2"


def test_domain_json_roundtrip():
    dom = ToricDomain.concave([("0", "10/3"), ("2/3", "4/3"),
                               ("4/3", "2/3"), ("7/3", "0")])
    assert domain_from_json(domain_to_json(dom)) == dom
    obj = domain_to_json(dom)
    assert obj["type"] == "concave"
    assert obj["boundary"][0] == ["0", "10/3"]


def test_reference_file_parses(data_dir):
    dom = load_domain(data_dir / "omega1.json")
    assert dom.kind == "concave"
    assert dom.area() == F(23, 9)
    assert [(p.x, p.y) for p in dom.boundary] == [
        (0, F(10, 3)), (F(2, 3), F(4, 3)), (F(4, 3), F(2, 3)), (F(7, 3), 0)]


def test_save_and_load(tmp_path):
    dom = ToricDomain.convex([(0, 1), (1, 2), (5, 0)])
    path = tmp_path / "dom.json"
    save_domain(dom, path)
    assert load_domain(path) == dom
    # saving twice produces identical bytes
    first = path.read_bytes()
    save_domain(dom, path)
    assert path.read_bytes() == first


def test_overwrite_leaves_exactly_the_new_bytes(tmp_path):
    # written in place over a longer file, the rest of the old bytes is cut
    path = tmp_path / "out.svg"
    path.write_bytes(b"x" * 5000)
    _overwrite(path, "<svg>\u00e9</svg>\n")
    assert path.read_bytes() == "<svg>\u00e9</svg>\n".encode("utf-8")
    _overwrite(str(path), "")
    assert path.read_bytes() == b""


def test_overwrite_makes_a_file_as_open_does(tmp_path):
    # a new file gets mode 0o666 less the umask, as open(path, "w") gives
    old = os.umask(0o027)
    try:
        with open(tmp_path / "by_open", "w"):
            pass
        _overwrite(tmp_path / "by_overwrite", "text")
    finally:
        os.umask(old)
    modes = [os.stat(tmp_path / name).st_mode
             for name in ("by_open", "by_overwrite")]
    assert modes[0] == modes[1] and modes[1] & 0o777 == 0o640


def test_overwrite_touches_nothing_it_cannot_encode(tmp_path):
    path = tmp_path / "out.svg"
    path.write_text("old drawing")
    before = os.stat(path)
    with pytest.raises(UnicodeEncodeError):
        _overwrite(path, "\ud800")
    after = os.stat(path)
    assert path.read_text() == "old drawing"
    assert after.st_mtime_ns == before.st_mtime_ns
    with pytest.raises(UnicodeEncodeError):
        _overwrite(tmp_path / "new.svg", "\ud800")
    assert not (tmp_path / "new.svg").exists()


def test_overwrite_cut_short_keeps_the_prefix_it_wrote(tmp_path, monkeypatch):
    # a write that fails part way leaves the new bytes it wrote and
    # nothing of the old text after them
    path = tmp_path / "out.svg"
    path.write_text("o" * 100)
    write = os.write

    def full_disk(fd, data):
        if len(data) <= 4:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(fd, data[:4])
    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError):
        _overwrite(path, "new text")
    monkeypatch.undo()
    assert path.read_text() == "new "


def test_bad_files_rejected(tmp_path):
    cases = {
        "notjson.json": "{",
        "badtype.json": '{"type": "round", "boundary": [["0", "1"]]}',
        "notdict.json": '["concave"]',
        "badpair.json": '{"type": "concave", "boundary": [["0", "1", "2"]]}',
        "floats.json": '{"type": "concave", "boundary": [[0.5, 1], [1, 0]]}',
        "nobound.json": '{"type": "concave"}',
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(DomainError):
            load_domain(path)
    with pytest.raises((DomainError, OSError)):
        load_domain(tmp_path / "missing.json")
    path = tmp_path / "notutf8.json"
    path.write_bytes(b'\xff\xfe{"type":"concave"}')
    with pytest.raises(DomainError, match="not UTF-8"):
        read_domain(path)


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert '"a"' in a.splitlines()[1]


# leaves of a report and more: escapes, non-ASCII and lone surrogates,
# ints past 64 bits, signed zeros, huge floats, nan and the infinities
_texts = st.text() | st.text(
    "\"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600")
_leaves = (_texts | st.integers() | st.integers(2 ** 64, 2 ** 300)
           | st.integers(-2 ** 300, -2 ** 64) | st.booleans() | st.none()
           | st.floats() | st.sampled_from([-0.0, 1e300, -1e-300,
                                            float("nan"), float("inf"),
                                            -float("inf")]))
# lists the writer joins in one go, and lists that only start like them:
# ints, bools among ints, strings then other items
_runs = (st.lists(st.integers(), min_size=1)
         | st.lists(st.integers() | st.booleans(), min_size=1)
         | st.lists(st.integers(-9, 9), min_size=2, max_size=2)
         | st.tuples(st.integers(), _leaves)
         | st.tuples(_texts, _leaves))
_trees = st.recursive(
    _leaves | _runs,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(_texts, kids)),
    max_leaves=24)


@given(_trees)
@example({})
@example([[], {}, ()])
@example({"a": ["1/2", "-3"], "b": {"": None}, "c": [True, False, -0.0]})
@example({"witnesses": [[[0, 0], [1, 1], [2, 0]], [[0, 0]]]})
@example([[1, True, 0, False], [1, "a", None, 2.5], ["a", 1], (3, 4)])
def test_canonical_json_is_json_dumps(obj):
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True,
                                             indent=2) + "\n"


def test_canonical_json_refuses_what_json_cannot_write():
    for obj in ({1, 2}, [frozenset()], {"a": Fraction(1, 2)}, b"x",
                {1: "a"}, {"a": {(1, 2): 3}}, {None: 1}):
        with pytest.raises(TypeError):
            canonical_json(obj)


def test_digests(tmp_path):
    assert digest_bytes(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert digest_file(path) == digest_bytes(b"abc")


@given(st.integers(-10 ** 100, 10 ** 100), st.integers(1, 10 ** 90))
@example(0, 1)
@example(0, 10 ** 90)
@example(-6, 4)
@example(12, 4)
@example(-7, 1)
def test_ratio_text_is_str_of_fraction(n, D):
    assert ratio_text(n, D) == str(Fraction(n, D))


def test_texts_past_the_digit_limit_are_a_limit_error(tmp_path, digit_limit):
    big = 10 ** (digit_limit + 5)
    assert ratio_text(big, big * 3) == "1/3"  # reduced before printing
    for n, D in ((big, 1), (1, big), (-big, 7)):
        with pytest.raises(LimitError):
            ratio_text(n, D)
    dom = ToricDomain("concave", 1, ((0, big), (1, 0)))
    with pytest.raises(LimitError):
        domain_to_json(dom)
    path = tmp_path / "big.json"
    with pytest.raises(LimitError):
        save_domain(dom, path)
    assert not path.exists()
