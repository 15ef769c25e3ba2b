import argparse
import contextlib
import io as sysio
import json
import os
import random
import shlex
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from addcomb import (
    GroupDescriptor,
    GroupSubset,
    find_bi_induced,
    generated_subgroup,
    half_graph,
    regularize,
)
from addcomb.caps import Caps
from addcomb.cli import build_parser, main
from addcomb.harness import (
    ExperimentConfig,
    generate_family,
    rows_to_csv,
    rows_to_json_lines,
    run_experiment,
    split_seed,
    summary_table,
)
from addcomb.io import (
    bits_to_hex,
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    frac_parse,
    frac_str,
    hex_to_bits,
    pattern_from_json,
    pattern_to_json,
    subset_from_json,
    subset_to_json,
    value_to_json,
    witness_from_json,
    witness_to_json,
    write_text_atomic,
)
from addcomb.regularity import OracleReport
from conftest import subsets


# ---------------------------------------------------------------- file formats


def test_hex_known_vectors():
    # little-endian by nibble: character j encodes bits 4j..4j+3
    assert bits_to_hex(0b0001, 4) == "1"
    assert bits_to_hex(0b100001, 6) == "12"
    assert bits_to_hex(0, 5) == "00"
    assert bits_to_hex(0xFF0F, 16) == "f0ff"
    assert hex_to_bits("f0ff", 16) == 0xFF0F
    assert hex_to_bits("12", 6) == 0b100001


def test_hex_errors():
    with pytest.raises(ValueError):
        bits_to_hex(1 << 4, 4)
    with pytest.raises(ValueError):
        bits_to_hex(-1, 4)
    with pytest.raises(ValueError):
        hex_to_bits("123", 4)
    with pytest.raises(ValueError):
        hex_to_bits("g", 4)
    with pytest.raises(ValueError):
        hex_to_bits("8", 3)


@given(st.integers(1, 80), st.data())
def test_hex_round_trip(order, data):
    bits = data.draw(st.integers(0, (1 << order) - 1))
    assert hex_to_bits(bits_to_hex(bits, order), order) == bits


def test_hex_codec_matches_nibble_oracle():
    for order in list(range(2, 81)) + [1024, 2**16]:
        rng = random.Random(order)
        for bits in (0, (1 << order) - 1, rng.getrandbits(order)):
            s = bits_to_hex(bits, order)
            assert s == oracles.bits_to_hex_by_nibble(bits, order), order
            for t in (s, s.upper()):
                assert hex_to_bits(t, order) == bits, order
                assert oracles.hex_to_bits_by_nibble(t, order) == bits, order


@pytest.mark.parametrize("s", ["1_0", " a", "0x", "+a", "1G", "a\n",
                               "f0f", "1f"])
def test_hex_rejects_like_nibble_oracle(s):
    # int(s, 16) would take "_", spaces, "0x" and "+"; the codec does not
    order = 4 * len(s) - 1
    with pytest.raises(ValueError) as want:
        oracles.hex_to_bits_by_nibble(s, order)
    with pytest.raises(ValueError) as got:
        hex_to_bits(s, order)
    assert str(got.value) == str(want.value)


def test_frac_str_parse():
    assert frac_str(Fraction(3, 8)) == "3/8"
    assert frac_str(Fraction(2)) == "2"
    assert frac_parse("3/8") == Fraction(3, 8)
    assert frac_parse("0.1") == Fraction(1, 10)
    assert frac_parse(0.1) == Fraction(1, 10)


def test_value_to_json_encodes_by_type():
    g = GroupDescriptor([4, 4])
    e = g.element(6)
    coords = list(g.coords_of(6))
    assert value_to_json(Fraction(6, 4)) == "3/2"
    assert value_to_json(e) == coords
    assert value_to_json((1, [Fraction(1, 2), e], None, 0.5, "x")) == [
        1, ["1/2", coords], None, 0.5, "x"]
    rep = OracleReport(Fraction(1, 4), None, 4,
                       ((1, Fraction(1, 2)), (4, Fraction(0))))
    assert value_to_json(rep) == {"epsilon": "1/4", "max_index": None,
                                  "min_index": 4,
                                  "frontier": [[1, "1/2"], [4, "0"]]}


def test_subset_json_round_trip_examples():
    g = GroupDescriptor([2, 2, 2, 2])
    a = GroupSubset(g, 0xFF0F)
    obj = subset_to_json(a)
    assert obj == {"moduli": [2, 2, 2, 2], "bits_hex": "f0ff"}
    assert subset_from_json(obj) == a
    # element lists are accepted on input, hex is canonical on output
    by_elems = subset_from_json(
        {"moduli": [4], "elements": [[1], [3]]}
    )
    assert sorted(by_elems.ranks()) == [1, 3]
    with pytest.raises(ValueError):
        subset_from_json({"moduli": [4]})
    with pytest.raises(ValueError):
        subset_from_json({"moduli": [4], "bits_hex": "f", "elements": [[0]]})
    with pytest.raises(ValueError):
        subset_from_json({"bits_hex": "f"})


@given(subsets())
def test_subset_json_round_trip(a):
    assert subset_from_json(subset_to_json(a)) == a


def test_pattern_json_round_trip():
    # 1-based on disk, 0-based in memory
    obj = pattern_to_json(half_graph(2))
    assert obj == {"u": 2, "v": 2, "edges": [[1, 1], [1, 2], [2, 2]]}
    assert pattern_from_json(obj) == half_graph(2)
    path = pattern_from_json({"u": 2, "v": 1, "edges": [[1, 1], [2, 1]]})
    assert path.edges == frozenset({(0, 0), (1, 0)})
    with pytest.raises(ValueError):
        pattern_from_json({"u": 2, "v": 1})
    with pytest.raises(ValueError):
        pattern_from_json({"u": 1, "v": 1, "edges": [[0, 1]]})
    with pytest.raises(ValueError):
        pattern_from_json({"u": 1, "v": 1, "edges": [[1, 2]]})


def test_witness_json_round_trip():
    z13 = GroupDescriptor([13])
    a = GroupSubset.from_ranks(z13, range(1, 7))
    w = find_bi_induced(a, half_graph(2))
    obj = witness_to_json(w)
    back = witness_from_json(z13, half_graph(2), obj)
    assert back == w


def test_certificate_json_round_trip():
    g = GroupDescriptor([2, 2, 2, 2])
    cert = regularize(GroupSubset(g, 0xFF0F), Fraction(1, 4))
    obj = certificate_to_json(cert)
    assert obj["achieved_error"] == "0"
    assert certificate_from_json(obj) == cert
    # string round trip through the canonical encoder too
    assert certificate_from_json(json.loads(canonical_dumps(obj))) == cert
    bad = dict(obj)
    bad["subgroup"] = dict(obj["subgroup"], index=cert.subgroup.index + 1)
    with pytest.raises(ValueError):
        certificate_from_json(bad)


def test_canonical_dumps_is_deterministic():
    assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    assert canonical_dumps({"a": None, "z": True}) == '{"a":null,"z":true}'


def test_write_text_atomic(tmp_path):
    p = str(tmp_path / "out.txt")
    write_text_atomic(p, "one\n")
    write_text_atomic(p, "two\n")
    with open(p) as fh:
        assert fh.read() == "two\n"
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


# ------------------------------------------------------------------- harness


def test_split_seed_deterministic_and_label_sensitive():
    assert split_seed(7, "a") == split_seed(7, "a")
    assert split_seed(7, "a") != split_seed(7, "b")
    assert split_seed(7, "a") != split_seed(8, "a")
    assert 0 <= split_seed(0, "") < 1 << 64


def test_generate_family_interval():
    z13 = GroupDescriptor([13])
    a = generate_family(z13, {"kind": "interval"}, 0)
    assert sorted(a.ranks()) == [1, 2, 3, 4, 5, 6]
    short = generate_family(z13, {"kind": "interval", "length": 2}, 0)
    assert sorted(short.ranks()) == [1, 2]
    with pytest.raises(ValueError):
        generate_family(z13, {"kind": "interval", "length": 13}, 0)


def test_generate_family_planted():
    g = GroupDescriptor([2, 2, 2, 2])
    spec = {"kind": "planted", "index": 4, "cosets": 2, "noise": 0}
    a = generate_family(g, spec, 1)
    # exact union of two cosets of the index-4 subgroup
    assert a.size == 2 * g.order // 4
    hs = [h for h in __import__("addcomb").enumerate_subgroups(g) if h.index == 4]
    h = hs[0]
    for r in range(g.order):
        coset_bits = __import__("addcomb").groups.translate_bits(g, h.bits, r)
        inter = (a.bits & coset_bits).bit_count()
        assert inter in (0, h.size)
    # deterministic per seed
    assert generate_family(g, spec, 1) == a
    assert generate_family(g, spec, 2) != a
    with pytest.raises(ValueError):
        generate_family(g, {"kind": "planted", "index": 5, "cosets": 1}, 0)
    with pytest.raises(ValueError):
        generate_family(g, {"kind": "planted", "index": 4, "cosets": 5}, 0)


def test_generate_family_random_and_explicit():
    z13 = GroupDescriptor([13])
    assert generate_family(z13, {"kind": "random", "density": 0}, 5).size == 0
    assert generate_family(z13, {"kind": "random", "density": 1}, 5).size == 13
    mid = generate_family(z13, {"kind": "random", "density": 0.5}, 5)
    assert mid == generate_family(z13, {"kind": "random", "density": 0.5}, 5)
    ex = generate_family(
        z13, {"kind": "explicit", "set": {"moduli": [13], "bits_hex": "00e0"}}, 0
    )
    assert sorted(ex.ranks()) == [9, 10, 11]
    with pytest.raises(ValueError):
        generate_family(z13, {"kind": "random", "density": 2}, 0)
    with pytest.raises(ValueError):
        generate_family(
            z13, {"kind": "explicit", "set": {"moduli": [5], "bits_hex": "03"}}, 0
        )
    with pytest.raises(ValueError):
        generate_family(z13, {"kind": "mystery"}, 0)


def _planted_config(**kw):
    g = GroupDescriptor([2, 2, 2, 2])
    base = dict(
        group=g,
        family={"kind": "planted", "index": 4, "cosets": 2, "noise": 0},
        study="regularize",
        sweep=["1/4", "1/8", "1/16"],
        seeds=[1, 2],
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_row_grid():
    rows = run_experiment(_planted_config())
    assert len(rows) == 6
    assert rows[0].run_id == "regularize-000-s1"
    assert rows[0].operation == "regularize"
    assert rows[0].error is None
    assert rows[0].values["achieved_error"] == "0"
    assert rows[0].values["index"] == 2
    assert rows[0].wall_ms is None
    assert [r.seed for r in rows] == [1, 2, 1, 2, 1, 2]
    assert run_experiment(_planted_config(sweep=[])) == []


def test_run_experiment_rerun_is_byte_identical():
    a = rows_to_json_lines(run_experiment(_planted_config()))
    b = rows_to_json_lines(run_experiment(_planted_config()))
    assert a == b
    for line in a.splitlines():
        obj = json.loads(line)
        assert obj["schema"] == 1
        assert canonical_dumps(obj) == line


def test_run_experiment_captures_row_errors():
    cfg = ExperimentConfig(
        group=GroupDescriptor([2, 2, 2, 2]),
        family={"kind": "interval"},
        study="packing",
        sweep=["1/2"],
        seeds=[0],
        caps=Caps(vc_ground_cap=8),
    )
    row = run_experiment(cfg)[0]
    assert row.error == "CapExceeded"
    assert row.values == {}


def test_run_experiment_tester_study():
    cfg = ExperimentConfig(
        group=GroupDescriptor([13]),
        family={"kind": "interval"},
        study="tester",
        sweep=[400],
        seeds=[3],
        pattern={"u": 1, "v": 1, "edges": [[1, 1]]},
    )
    row = run_experiment(cfg)[0]
    assert row.values["exact_density"] == "6/13"
    assert row.values["within_3sigma"] is True
    assert row.values["decision"] == "YES"
    with pytest.raises(ValueError):
        ExperimentConfig(
            group=GroupDescriptor([13]), family={"kind": "interval"},
            study="tester", sweep=[10], seeds=[0],
        )
    with pytest.raises(ValueError):
        _planted_config(study="mystery")
    with pytest.raises(ValueError):
        _planted_config(output_format="xml")


def test_run_experiment_writes_output(tmp_path):
    out = str(tmp_path / "rows.jsonl")
    rows = run_experiment(_planted_config(output_path=out))
    with open(out) as fh:
        assert fh.read() == rows_to_json_lines(rows)
    out_csv = str(tmp_path / "rows.csv")
    run_experiment(_planted_config(output_path=out_csv, output_format="csv"))
    with open(out_csv) as fh:
        header = fh.readline().rstrip("\n")
    assert header == ("schema,run_id,operation,input_hash,sweep,seed,error,"
                      "epsilon,index,achieved_error,delta_used,degenerate,ell")


@pytest.mark.parametrize("kw", [{"sweep": []}, {"seeds": []}])
def test_run_experiment_csv_header_of_empty_grid_follows_study(tmp_path, kw):
    # no row to read the study from: the header still names packing's columns
    out = str(tmp_path / "rows.csv")
    rows = run_experiment(_planted_config(
        study="packing", output_path=out, output_format="csv", **kw))
    assert rows == []
    with open(out) as fh:
        assert fh.read() == ("schema,run_id,operation,input_hash,sweep,seed,"
                             "error,delta,vcdim,packing_size,bound,bound_ok\n")


def test_summary_table_lists_rows():
    rows = run_experiment(_planted_config())
    text = summary_table(rows)
    assert text.splitlines()[0].startswith("run_id")
    assert "regularize-000-s1" in text
    assert summary_table([]) == "(no rows)\n"


_PLANTED_JSON = {
    "group": {"moduli": [2, 2, 2, 2]},
    "family": {"kind": "planted", "index": 4, "cosets": 2, "noise": 0},
    "study": "regularize",
    "sweep": ["1/4", "1/8", "1/16"],
    "seeds": [1, 2],
}


def test_config_from_json_round_trip():
    cfg = ExperimentConfig.from_json(_PLANTED_JSON)
    assert rows_to_json_lines(run_experiment(cfg)) == rows_to_json_lines(
        run_experiment(_planted_config())
    )


def test_config_from_json_tester_exact_false_skips_the_exact_density():
    obj = {
        "group": {"moduli": [13]},
        "family": {"kind": "interval"},
        "study": "tester",
        "sweep": [400],
        "seeds": [3],
        "pattern": {"u": 1, "v": 1, "edges": [[1, 1]]},
        "tester_exact": False,
    }
    row = run_experiment(ExperimentConfig.from_json(obj))[0]
    assert row.values["exact_density"] is None
    assert row.values["within_3sigma"] is None
    assert row.values["decision"] == "YES"
    # bool() would read the string "false" as true
    for bad in ("false", 0, None):
        with pytest.raises(ValueError, match="tester_exact"):
            ExperimentConfig.from_json(dict(obj, tester_exact=bad))


def test_config_from_json_record_wall_time_adds_only_wall_ms():
    plain = run_experiment(ExperimentConfig.from_json(_PLANTED_JSON))
    timed = run_experiment(ExperimentConfig.from_json(
        dict(_PLANTED_JSON, record_wall_time=True)))
    assert len(timed) == len(plain) == 6
    for t, p in zip(timed, plain):
        assert "wall_ms" not in p.to_json()
        obj = t.to_json()
        assert obj.pop("wall_ms") >= 0
        assert canonical_dumps(obj) == canonical_dumps(p.to_json())
    for bad in ("false", 1):
        with pytest.raises(ValueError, match="record_wall_time"):
            ExperimentConfig.from_json(
                dict(_PLANTED_JSON, record_wall_time=bad))


# ----------------------------------------------------------------------- cli


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _run_cli(argv):
    buf = sysio.StringIO()
    err = sysio.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    g13 = GroupDescriptor([13])
    interval = GroupSubset.from_ranks(g13, range(1, 7))
    made = {
        "interval": _write_json(tmp_path / "interval.json", subset_to_json(interval)),
        "union": _write_json(
            tmp_path / "union.json",
            {"moduli": [2, 2, 2, 2], "bits_hex": "f0ff"},
        ),
        "three": _write_json(
            tmp_path / "three.json",
            {"moduli": [2, 2, 2, 2], "bits_hex": "fff0"},
        ),
        "subgroup": _write_json(
            tmp_path / "subgroup.json",
            {"moduli": [2, 2, 2, 2], "bits_hex": "f000"},
        ),
        "hg1": _write_json(
            tmp_path / "hg1.json", {"u": 1, "v": 1, "edges": [[1, 1]]}
        ),
        "hg2": _write_json(
            tmp_path / "hg2.json",
            {"u": 2, "v": 2, "edges": [[1, 1], [1, 2], [2, 2]]},
        ),
        "dir": tmp_path,
    }
    return made


def test_cli_vcdim(files):
    code, out, _ = _run_cli(["vcdim", "--set", files["interval"]])
    assert code == 0
    assert json.loads(out) == {"vcdim": 2}
    code, out, _ = _run_cli(["vcdim", "--set", files["interval"], "--max-d", "1"])
    assert code == 0
    assert json.loads(out) == {
        "vcdim": 2, "threshold": 1, "exceeds_threshold": True
    }


def test_cli_vcdim_csv_format(files):
    code, out, _ = _run_cli(
        ["vcdim", "--set", files["interval"], "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == ["vcdim", "2"]


def test_cli_ball_and_pack(files):
    code, out, _ = _run_cli(
        ["ball", "--set", files["union"], "--delta", "1/4"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] == "1/4"
    assert obj["size"] == 4
    assert obj["members"]["bits_hex"] == "f000"
    code, out, _ = _run_cli(
        ["pack", "--set", files["union"], "--delta", "1/2"]
    )
    obj = json.loads(out)
    assert code == 0 and obj["certified"] and obj["size"] >= 1


def test_cli_pack_negative_delta(files):
    code, out, err = _run_cli(["pack", "--set", files["union"], "--delta=-1/2"])
    assert (code, out) == (1, "")
    assert err == '{"detail":"delta must be >= 0","error":"ValueError"}\n'


def test_cli_regularize_certificate(files):
    code, out, _ = _run_cli(
        ["regularize", "--set", files["union"], "--eps", "1/4"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["index"] == 4
    assert obj["achieved_error"] == "0"
    assert not obj["degenerate"]
    cert = certificate_from_json(obj)
    assert cert.index == 4


def test_cli_regularize_degenerate_exit(files):
    single = _write_json(
        files["dir"] / "single.json", {"moduli": [2, 2, 2, 2], "bits_hex": "1000"}
    )
    code, out, _ = _run_cli(
        ["regularize", "--set", single, "--eps", "1/128", "--schedule", "1/2"]
    )
    assert code == 2
    obj = json.loads(out)
    assert obj["degenerate"] and obj["index"] == 16


def test_cli_robust_high_vc_exit(files):
    g = GroupDescriptor([2] * 10)
    rng = random.Random(77)
    big = _write_json(
        files["dir"] / "big.json",
        subset_to_json(GroupSubset(g, rng.getrandbits(1024) & g.full_mask)),
    )
    code, out, _ = _run_cli(
        ["robust", "--set", big, "--eps", "1/10", "--d", "1", "--seed", "6"]
    )
    assert code == 3
    obj = json.loads(out)
    assert obj["kind"] == "high_vc"
    assert obj["report"]["frequency"] >= 0.9


def test_cli_robust_at_zero_epsilon(files):
    code, out, _ = _run_cli(["robust", "--set", files["union"], "--eps", "0",
                             "--d", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "certificate"
    assert [s["delta"] for s in obj["steps"]] == ["1/32"]
    assert obj["certificate"]["achieved_error"] == "0"


def test_cli_oracle_best_subgroup(files):
    code, out, _ = _run_cli(
        ["oracle-best-subgroup", "--set", files["union"], "--eps", "1/4"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["min_index"] <= 4
    assert obj["frontier"][0][0] == 1


def test_cli_pattern_find(files):
    code, out, _ = _run_cli(
        ["pattern-find", "--set", files["interval"], "--pattern", files["hg2"]]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["phi_u"] == [[1], [0]]
    assert obj["phi_v"] == [[0], [1]]
    assert obj["injective_u"] and obj["injective_v"]
    # the shattering route needs dimension 3, the interval only has 2
    code, out, _ = _run_cli(
        ["pattern-find", "--set", files["interval"], "--pattern", files["hg2"],
         "--via-shattering"]
    )
    assert code == 0
    assert json.loads(out) == {"found": False}


def test_cli_pattern_test(files):
    code, out, _ = _run_cli(
        ["pattern-test", "--set", files["three"], "--pattern", files["hg2"],
         "--samples", "400", "--seed", "3", "--exact"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["decision"] == "YES"
    assert obj["bi_inducing"] == 45
    assert obj["exact_density"] == "3/32"
    assert obj["wilson_low"] <= 45 / 400 <= obj["wilson_high"]


def test_cli_distance_and_cap_exit(files):
    # dropping one whole coset leaves a free two-coset union
    code, out, _ = _run_cli(
        ["distance", "--set", files["union"], "--pattern", files["hg2"]]
    )
    assert code == 0
    assert json.loads(out) == {"distance": 4}
    big = _write_json(
        files["dir"] / "z17.json", {"moduli": [17], "bits_hex": "00000"}
    )
    code, _, err = _run_cli(["distance", "--set", big, "--pattern", files["hg1"]])
    assert code == 4
    assert json.loads(err)["error"] == "cap_exceeded"


def test_cli_densify(files):
    code, out, _ = _run_cli(
        ["densify", "--set", files["union"], "--pattern", files["hg2"],
         "--subgroup", files["subgroup"], "--samples", "500", "--seed", "1"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["fraction"] == 1.0
    assert obj["meets_bound"] is True
    assert obj["bound"] == "1/2"
    assert len(obj["witness"]["phi_u"]) == 2


def test_cli_densify_rejects_zero_samples(files):
    code, out, err = _run_cli(
        ["densify", "--set", files["union"], "--pattern", files["hg2"],
         "--subgroup", files["subgroup"], "--samples", "0", "--seed", "1"]
    )
    assert (code, out, err) == (
        1, "", '{"detail":"samples must be >= 1","error":"ValueError"}\n')


# Full stdout bytes of the pattern subcommands, captured before the column
# table, the anchored V-side sweep and the witness reuse in distance_to_free.
# Words naming a fixture file are replaced by its path.
PATTERN_CLI_GOLDENS = [
    ("pattern-find --set interval --pattern hg2",
     '{"found":true,"injective_u":true,"injective_v":true,"phi_u":[[1],'
     '[0]],"phi_v":[[0],[1]]}\n'),
    ("pattern-find --set interval --pattern hg2 --no-injective",
     '{"found":true,"injective_u":true,"injective_v":true,"phi_u":[[1],'
     '[0]],"phi_v":[[0],[1]]}\n'),
    ("pattern-find --set union --pattern hg2 --no-injective",
     '{"found":true,"injective_u":true,"injective_v":true,"phi_u":[[0,0,0,'
     '1],[0,0,1,0]],"phi_v":[[0,0,0,0],[0,0,1,0]]}\n'),
    ("pattern-find --set three --pattern hg2",
     '{"found":true,"injective_u":true,"injective_v":true,"phi_u":[[0,0,0,'
     '0],[0,0,1,1]],"phi_v":[[0,0,0,0],[0,0,1,0]]}\n'),
    ("pattern-find --set interval --pattern hg2 --via-shattering",
     '{"found":false}\n'),
    ("pattern-find --set interval --pattern hg1 --via-shattering",
     '{"found":true,"injective_u":true,"injective_v":true,"phi_u":[[6]],'
     '"phi_v":[[0]]}\n'),
    ("pattern-test --set three --pattern hg2 --samples 400 --seed 3 --exact",
     '{"bi_fraction":0.1125,"bi_inducing":45,"decision":"YES",'
     '"exact_density":"3/32","injective_bi_inducing":45,"samples":400,'
     '"wilson_high":0.14722427637608715,"wilson_low":0.0851480200886654}\n'),
    ("pattern-test --set three --pattern hg2 --samples 400 --seed 3",
     '{"bi_fraction":0.1125,"bi_inducing":45,"decision":"YES",'
     '"injective_bi_inducing":45,"samples":400,'
     '"wilson_high":0.14722427637608715,"wilson_low":0.0851480200886654}\n'),
    ("pattern-test --set interval --pattern hg2 --samples 400 --seed 5 --exact",
     '{"bi_fraction":0.0425,"bi_inducing":17,"decision":"YES",'
     '"exact_density":"70/2197","injective_bi_inducing":17,"samples":400,'
     '"wilson_high":0.06700259659708263,"wilson_low":0.02670146955162519}\n'),
    ("distance --set union --pattern hg2",
     '{"distance":4}\n'),
    ("distance --set three --pattern hg2",
     '{"distance":4}\n'),
    ("densify --set union --pattern hg2 --subgroup subgroup --samples 500 --seed 1",
     '{"bound":"1/2","fraction":1.0,"hits":500,"meets_bound":true,'
     '"samples":500,"sigma":0.0,"witness":{"injective_u":true,'
     '"injective_v":true,"phi_u":[[0,0,0,1],[0,0,1,0]],"phi_v":[[0,0,0,0],'
     '[0,0,1,0]]}}\n'),
    ("densify --set three --pattern hg2 --subgroup subgroup --samples 500 --seed 1",
     '{"bound":"1/2","fraction":1.0,"hits":500,"meets_bound":true,'
     '"samples":500,"sigma":0.0,"witness":{"injective_u":true,'
     '"injective_v":true,"phi_u":[[0,0,0,0],[0,0,1,1]],"phi_v":[[0,0,0,0],'
     '[0,0,1,0]]}}\n'),
]


@pytest.mark.parametrize("argv,stdout", PATTERN_CLI_GOLDENS,
                         ids=[c[0] for c in PATTERN_CLI_GOLDENS])
def test_cli_pattern_stdout_bytes(files, argv, stdout):
    code, out, err = _run_cli([files.get(w, w) for w in argv.split()])
    assert (code, out, err) == (0, stdout, "")


@pytest.fixture
def gate_files(files):
    """The files fixture plus the larger inputs of the CLI byte gates."""
    d = files["dir"]
    g10 = GroupDescriptor([2] * 10)
    g64 = GroupDescriptor([4, 4, 4])
    made = dict(files)
    made.update({
        "single": _write_json(d / "single.json",
                              {"moduli": [2, 2, 2, 2], "bits_hex": "1000"}),
        "big": _write_json(d / "big.json", subset_to_json(GroupSubset(
            g10, random.Random(77).getrandbits(1024) & g10.full_mask))),
        # the cosets of an index-4 subgroup with three ranks flipped
        "mid": _write_json(d / "mid.json", subset_to_json(
            GroupSubset.from_ranks(g64, [
                r for r in range(64) if (r % 4 < 2) != (r in (5, 22, 41))]))),
        "z5": _write_json(d / "z5.json", {"moduli": [5], "bits_hex": "30"}),
        "exp_json": _write_json(d / "exp_json.json", {
            "group": {"moduli": [2, 2, 2, 2]},
            "family": {"kind": "planted", "index": 4, "cosets": 2,
                       "noise": "1/16"},
            "study": "regularize", "sweep": ["1/4", "1/8"], "seeds": [1, 2]}),
        "exp_csv": _write_json(d / "exp_csv.json", {
            "group": {"moduli": [4, 4]},
            "family": {"kind": "random", "density": "1/3"},
            "study": "packing", "sweep": ["1/4", "1/2"], "seeds": [3],
            "output": {"path": str(d / "rows.csv"), "format": "csv"}}),
    })
    return made


# Exit codes and full stdout bytes of the other subcommands, captured before
# the shared regularity delta step, the removal of regularize --robust and
# the sampled systems' move onto vc_dimension.  Words naming a gate_files
# entry are replaced by its path.
CLI_GOLDENS = [
    ('vcdim --set interval', 0,
     '{"vcdim":2}\n'),
    ('vcdim --set interval --max-d 1', 0,
     '{"exceeds_threshold":true,"threshold":1,"vcdim":2}\n'),
    ('vcdim --set union --max-d 2', 0,
     '{"exceeds_threshold":false,"threshold":2,"vcdim":1}\n'),
    ('vcdim --set three --ground subgroup --translators union', 0,
     '{"vcdim":1}\n'),
    ('vcdim --set mid', 0,
     '{"vcdim":3}\n'),
    ('ball --set interval --delta 1/4', 0,
     '{"delta":"1/4","members":{"bits_hex":"3001","moduli":[13]},"size":3}\n'),
    ('ball --set mid --delta 1/8', 0,
     '{"delta":"1/8","members":{"bits_hex":"1111111111111111","moduli":[4,4,'
     '4]},"size":16}\n'),
    ('ball --set interval --delta 1/4 --format csv', 0,
     'delta,members.bits_hex,members.moduli,size\n1/4,3001,[13],3\n'),
    ('pack --set interval --delta 1/4', 0,
     '{"centers":[[0],[2],[4],[6],[8],[10]],"certified":true,"delta":"1/4","'
     'size":6}\n'),
    ('pack --set mid --delta 1/4', 0,
     '{"centers":[[0,0,0],[1,0,0],[2,0,0],[3,0,0]],"certified":true,"delta":'
     '"1/4","size":4}\n'),
    ('regularize --set union --eps 1/4', 0,
     '{"achieved_error":"0","degenerate":false,"delta_used":"1/8","epsilon":'
     '"1/4","index":4,"moduli":[2,2,2,2],"rounded_hex":"f0ff","set_hex":"f0f'
     'f","subgroup":{"bits_hex":"f000","generators":[3,1],"index":4},"trace"'
     ':{"ball_hex":"f000","double_set_hex":"f000","ell":1,"ell_set_hex":"f00'
     '0","k_value":3.1825481031137355,"sizes":[4,4]}}\n'),
    ('regularize --set mid --eps 1/4', 0,
     '{"achieved_error":"3/64","degenerate":false,"delta_used":"1/8","epsilo'
     'n":"1/4","index":4,"moduli":[4,4,4],"rounded_hex":"3333333333333333","'
     'set_hex":"3133373333133333","subgroup":{"bits_hex":"1111111111111111",'
     '"generators":[40,16,4],"index":4},"trace":{"ball_hex":"111111111111111'
     '1","double_set_hex":"1111111111111111","ell":1,"ell_set_hex":"11111111'
     '11111111","k_value":3.1825481031137355,"sizes":[16,16]}}\n'),
    ('regularize --set mid --eps 1/2 --schedule 1/4,1/8,1/16', 0,
     '{"achieved_error":"3/64","degenerate":false,"delta_used":"1/4","epsilo'
     'n":"1/2","index":4,"moduli":[4,4,4],"rounded_hex":"3333333333333333","'
     'set_hex":"3133373333133333","subgroup":{"bits_hex":"1111111111111111",'
     '"generators":[40,16,4],"index":4},"trace":{"ball_hex":"111111111111111'
     '1","double_set_hex":"1111111111111111","ell":1,"ell_set_hex":"11111111'
     '11111111","k_value":2.9081230830632694,"sizes":[16,16]}}\n'),
    ('regularize --set mid --eps 1/2 --max-index 4', 0,
     '{"achieved_error":"3/64","degenerate":false,"delta_used":"1/4","epsilo'
     'n":"1/2","index":4,"moduli":[4,4,4],"rounded_hex":"3333333333333333","'
     'set_hex":"3133373333133333","subgroup":{"bits_hex":"1111111111111111",'
     '"generators":[40,16,4],"index":4},"trace":{"ball_hex":"111111111111111'
     '1","double_set_hex":"1111111111111111","ell":1,"ell_set_hex":"11111111'
     '11111111","k_value":2.9081230830632694,"sizes":[16,16]}}\n'),
    ('regularize --set three --eps 1/4 --max-index 2', 2,
     '{"achieved_error":"0","degenerate":true,"delta_used":null,"epsilon":"1'
     '/4","index":16,"moduli":[2,2,2,2],"rounded_hex":"fff0","set_hex":"fff0'
     '","subgroup":{"bits_hex":"1000","generators":[],"index":16},"trace":nu'
     'll}\n'),
    ('regularize --set single --eps 1/128 --schedule 1/2', 2,
     '{"achieved_error":"0","degenerate":true,"delta_used":null,"epsilon":"1'
     '/128","index":16,"moduli":[2,2,2,2],"rounded_hex":"1000","set_hex":"10'
     '00","subgroup":{"bits_hex":"1000","generators":[],"index":16},"trace":'
     'null}\n'),
    ('oracle-best-subgroup --set union --eps 1/4', 0,
     '{"epsilon":"1/4","frontier":[[1,"1/4"],[2,"1/4"],[4,"0"],[8,"0"],[16,"'
     '0"]],"max_index":null,"min_index":1}\n'),
    ('oracle-best-subgroup --set mid --eps 1/4 --max-index 8', 0,
     '{"epsilon":"1/4","frontier":[[1,"31/64"],[2,"29/64"],[4,"3/64"],[8,"3/'
     '64"]],"max_index":8,"min_index":4}\n'),
    ('robust --set union --eps 1/4 --d 1', 0,
     '{"certificate":{"achieved_error":"0","degenerate":false,"delta_used":"'
     '1/8","epsilon":"1/4","index":4,"moduli":[2,2,2,2],"rounded_hex":"f0ff"'
     ',"set_hex":"f0ff","subgroup":{"bits_hex":"f000","generators":[3,1],"in'
     'dex":4},"trace":{"ball_hex":"f000","double_set_hex":"f000","ell":1,"el'
     'l_set_hex":"f000","k_value":3.1825481031137355,"sizes":[4,4]}},"d":1,"'
     'kind":"certificate","steps":[{"ball_size":4,"branch":"certificate","de'
     'lta":"1/8","m":134,"m_effective":1,"threshold":"4/3"}]}\n'),
    ('robust --set mid --eps 1/8 --d 2 --trials 10 --c 2 --seed 4', 3,
     '{"d":2,"kind":"high_vc","report":{"d":2,"frequency":0.0,"hits":0,"tria'
     'ls":10,"wilson_high":0.2775401687666166,"wilson_low":0.0,"x_size":12,"'
     'y_size":3},"steps":[{"ball_size":3,"branch":"small_ball","delta":"1/16'
     '","m":89,"m_effective":1,"threshold":"16/3"}]}\n'),
    ('robust --set big --eps 1/10 --d 1 --seed 6', 3,
     '{"d":1,"kind":"high_vc","report":{"d":1,"frequency":1.0,"hits":50,"tri'
     'als":50,"wilson_high":1.0,"wilson_low":0.9286499658256813,"x_size":504'
     ',"y_size":42},"steps":[{"ball_size":1,"branch":"small_ball","delta":"1'
     '/20","m":480,"m_effective":42,"threshold":"128/63"}]}\n'),
    ('ap-search --set interval --k 2 --half-graph', 0,
     '{"found":true,"half_graph_witness":{"injective_u":true,"injective_v":t'
     'rue,"phi_u":[[3],[6]],"phi_v":[[1],[11]]},"k":2,"start":[1],"step":[3]'
     ',"terms":[[1],[4],[7],[10]]}\n'),
    ('ap-search --set mid --k 2 --half-graph', 0,
     '{"found":true,"half_graph_witness":{"injective_u":true,"injective_v":t'
     'rue,"phi_u":[[1,0,0],[2,0,0]],"phi_v":[[0,0,0],[3,0,0]]},"k":2,"start"'
     ':[0,0,0],"step":[1,0,0],"terms":[[0,0,0],[1,0,0],[2,0,0],[3,0,0]]}\n'),
    ('ap-search --set union --k 3', 0,
     '{"found":false}\n'),
    ('kneser-check --set z5 --t 3', 0,
     '{"applies":true,"contains_zero":true,"fills":true,"generates":true,"si'
     'ze_ok":true,"sumset_size":5,"t":3}\n'),
    ('kneser-check --set union --t 1', 0,
     '{"applies":false,"contains_zero":true,"fills":true,"generates":true,"s'
     'ize_ok":false,"sumset_size":16,"t":1}\n'),
    ('experiment --config exp_json', 0,
     'run_id             sweep  seed  error  epsilon  index  achieved_error '
     ' delta_used  degenerate  ell\nregularize-000-s1  1/4    1     -      1'
     '/4      16     0               1/8         False       1\nregularize-0'
     '00-s2  1/4    2     -      1/4      8      0               1/8        '
     ' False       1\nregularize-001-s1  1/8    1     -      1/8      16    '
     ' 0               1/16        False       1\nregularize-001-s2  1/8    '
     '2     -      1/8      8      0               1/16        False       1'
     '\n{"error":null,"input_hash":"54b23f2884932214","operation":"regulariz'
     'e","run_id":"regularize-000-s1","schema":1,"seed":1,"sweep":"1/4","val'
     'ues":{"achieved_error":"0","degenerate":false,"delta_used":"1/8","ell"'
     ':1,"epsilon":"1/4","index":16}}\n{"error":null,"input_hash":"1b0497a68'
     '34585bf","operation":"regularize","run_id":"regularize-000-s2","schema'
     '":1,"seed":2,"sweep":"1/4","values":{"achieved_error":"0","degenerate"'
     ':false,"delta_used":"1/8","ell":1,"epsilon":"1/4","index":8}}\n{"error'
     '":null,"input_hash":"54b23f2884932214","operation":"regularize","run_i'
     'd":"regularize-001-s1","schema":1,"seed":1,"sweep":"1/8","values":{"ac'
     'hieved_error":"0","degenerate":false,"delta_used":"1/16","ell":1,"epsi'
     'lon":"1/8","index":16}}\n{"error":null,"input_hash":"1b0497a6834585bf"'
     ',"operation":"regularize","run_id":"regularize-001-s2","schema":1,"see'
     'd":2,"sweep":"1/8","values":{"achieved_error":"0","degenerate":false,"'
     'delta_used":"1/16","ell":1,"epsilon":"1/8","index":8}}\n'),
    ('experiment --config exp_csv', 0,
     'run_id          sweep  seed  error  delta  vcdim  packing_size  bound '
     '   bound_ok\npacking-000-s3  1/4    3     -      1/4    3      16     '
     '       1728000  True\npacking-001-s3  1/2    3     -      1/2    3    '
     '  2             216000   True\n'),
    # with no output path, --format csv prints the rows as CSV
    ('experiment --config exp_json --format csv', 0,
     'run_id             sweep  seed  error  epsilon  index  achieved_error '
     ' delta_used  degenerate  ell\nregularize-000-s1  1/4    1     -      1/'
     '4      16     0               1/8         False       1\nregularize-000'
     '-s2  1/4    2     -      1/4      8      0               1/8         F'
     'alse       1\nregularize-001-s1  1/8    1     -      1/8      16     0 '
     '              1/16        False       1\nregularize-001-s2  1/8    2   '
     '  -      1/8      8      0               1/16        False       1\nsch'
     'ema,run_id,operation,input_hash,sweep,seed,error,epsilon,index,achieve'
     'd_error,delta_used,degenerate,ell\n1,regularize-000-s1,regularize,54b23'
     'f2884932214,1/4,1,,1/4,16,0,1/8,False,1\n1,regularize-000-s2,regularize'
     ',1b0497a6834585bf,1/4,2,,1/4,8,0,1/8,False,1\n1,regularize-001-s1,regul'
     'arize,54b23f2884932214,1/8,1,,1/8,16,0,1/16,False,1\n1,regularize-001-s'
     '2,regularize,1b0497a6834585bf,1/8,2,,1/8,8,0,1/16,False,1\n'),
]


@pytest.mark.parametrize("argv,code,stdout", CLI_GOLDENS,
                         ids=[c[0] for c in CLI_GOLDENS])
def test_cli_stdout_bytes(gate_files, argv, code, stdout):
    got = _run_cli([gate_files.get(w, w) for w in argv.split()])
    assert got == (code, stdout, "")


def test_cli_goldens_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    covered = {c[0].split()[0] for c in CLI_GOLDENS + PATTERN_CLI_GOLDENS}
    assert sorted(set(sub.choices) - covered) == []


def test_cli_experiment_csv_file_bytes(gate_files):
    assert _run_cli(["experiment", "--config", gate_files["exp_csv"]])[0] == 0
    with open(gate_files["dir"] / "rows.csv", encoding="utf-8") as fh:
        assert fh.read() == (
            "schema,run_id,operation,input_hash,sweep,seed,error,delta,"
            "vcdim,packing_size,bound,bound_ok\n"
            "1,packing-000-s3,packing,907269522ad1b0d9,1/4,3,,1/4,3,16,"
            "1728000,True\n"
            "1,packing-001-s3,packing,907269522ad1b0d9,1/2,3,,1/2,3,2,"
            "216000,True\n"
        )


def test_readme_cli_lines_parse():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("addcomb ")]
    assert len(lines) == 13
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line.split(" > ")[0])[1:]
        assert parser.parse_args(argv).command == argv[0]


def test_cli_ap_search(files):
    code, out, _ = _run_cli(
        ["ap-search", "--set", files["interval"], "--k", "2", "--half-graph"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["start"] == [1] and obj["step"] == [3]
    assert obj["terms"] == [[1], [4], [7], [10]]
    assert "half_graph_witness" in obj


def test_cli_kneser_check(files):
    z5 = _write_json(files["dir"] / "z5.json", {"moduli": [5], "bits_hex": "30"})
    code, out, _ = _run_cli(["kneser-check", "--set", z5, "--t", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "t": 3, "generates": True, "size_ok": True, "contains_zero": True,
        "applies": True, "sumset_size": 5, "fills": True,
    }


def test_cli_error_exit(files):
    code, _, err = _run_cli(
        ["vcdim", "--set", str(files["dir"] / "missing.json")]
    )
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_cli_caps_file_override(files):
    caps = _write_json(files["dir"] / "caps.json", {"vc_ground_cap": 2})
    code, _, err = _run_cli(
        ["vcdim", "--set", files["interval"], "--caps", caps]
    )
    assert code == 4
    assert json.loads(err)["error"] == "cap_exceeded"
    bad = _write_json(files["dir"] / "badcaps.json", {"nope": 1})
    code, _, err = _run_cli(
        ["vcdim", "--set", files["interval"], "--caps", bad]
    )
    assert code == 1


@pytest.mark.parametrize("bad", [True, 1.7, "12", -5])
def test_caps_from_json_rejects_a_value_that_is_not_a_count(files, bad):
    with pytest.raises(ValueError, match="vc_ground_cap"):
        Caps.from_json({"vc_ground_cap": bad})
    caps = _write_json(files["dir"] / "caps.json", {"vc_ground_cap": bad})
    code, out, err = _run_cli(
        ["vcdim", "--set", files["interval"], "--caps", caps])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "ValueError"
    assert "vc_ground_cap" in json.loads(err)["detail"]


def test_cli_experiment_rerun_byte_identical(files):
    out1 = str(files["dir"] / "rows1.jsonl")
    out2 = str(files["dir"] / "rows2.jsonl")
    base = {
        "group": {"moduli": [2, 2, 2, 2]},
        "family": {"kind": "planted", "index": 4, "cosets": 2, "noise": "1/16"},
        "study": "regularize",
        "sweep": ["1/4", "1/8"],
        "seeds": [1, 2],
    }
    cfg1 = _write_json(files["dir"] / "cfg1.json",
                       dict(base, output={"path": out1}))
    cfg2 = _write_json(files["dir"] / "cfg2.json",
                       dict(base, output={"path": out2}))
    code, out, _ = _run_cli(["experiment", "--config", cfg1])
    assert code == 0
    assert out.splitlines()[0].startswith("run_id")
    code, _, _ = _run_cli(["experiment", "--config", cfg2])
    assert code == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
