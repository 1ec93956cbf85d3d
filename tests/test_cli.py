"""File ingestion, command dispatch, exit codes, and report schemas."""

import json
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gffresist.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID_NETWORK,
    EXIT_PASS,
    EXIT_USAGE,
    NETWORK_SCHEMA,
    REPORT_SCHEMA,
    fmt,
    parse_network,
    run_command,
    serialize_network,
)
from gffresist.errors import ParseError, ValidationError
from gffresist.verify import instance_rng, random_network

DATA = Path(__file__).parent / "data"


def write_network(tmp_path, doc, name="net.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_single_edge(tmp_path, r_literal: str) -> str:
    """One a-b edge whose resistance is written verbatim into the JSON."""
    path = tmp_path / "edge.json"
    path.write_text('{"vertices": ["a", "b"], "edges": '
                    f'[{{"u": "a", "v": "b", "r": {r_literal}}}]}}', "utf-8")
    return str(path)


def triangle_check(check, bar=False):
    """argv of ``verify check`` on the triangle, pair a,b."""
    net = str(DATA / "triangle.json")
    return (["verify", check, "--network", net, "--pair", "a,b"]
            + (["--bar-network", net] if bar else []))


# 1e400 parses as inf; a 401-digit integer overflows float(); a 5000-digit
# one exceeds Python's integer-parsing limit. All three are one error.
HUGE_RESISTANCES = pytest.mark.parametrize(
    "literal", ["1e400", "1" + "0" * 400, "9" * 5000],
    ids=["float-1e400", "int-401-digits", "int-5000-digits"])


# Files no JSON document can be read from: Latin-1 bytes, and arrays nested
# deeper than the decoder's recursion limit.
UNDECODABLE = pytest.mark.parametrize("content", [
    '{"vertices": ["\xe9", "b"], "edges": []}'.encode("latin-1"),
    b"[" * 100_000 + b"]" * 100_000,
], ids=["latin-1", "nested-100000"])

# The options each verify check reads, besides -h/--help: 43 check/option
# pairs.
VERIFY_OPTIONS = {
    "superadd": {"--network", "--pair", "--format", "--bar-network", "--tol"},
    "melvin": {"--network", "--pair", "--format", "--bar-network", "--tol"},
    "entropy": {"--network", "--pair", "--format", "--bar-network", "--tol",
                "--bits"},
    "concavity": {"--network", "--pair", "--format", "--bar-network",
                  "--tol", "--grid"},
    "scaling": {"--network", "--pair", "--format", "--tol", "--scale"},
    "monotone": {"--network", "--pair", "--format", "--tol", "--edge",
                 "--delta"},
    "appendix": {"--format", "--tol", "--dim", "--seed", "--bits"},
    "mc": {"--network", "--pair", "--format", "--samples", "--seed"},
}


class TestParseNetwork:
    def test_single_edge(self, tmp_path):
        path = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "r": 1.0}]})
        net = parse_network(path)
        assert net.graph.n_edges == 1
        assert net.resistances[0] == 1.0

    def test_parallel_indexing(self, tmp_path):
        path = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "r": 1},
                      {"u": "b", "v": "a", "r": 2}]})
        net = parse_network(path)
        assert [(rec.tail, rec.head, rec.parallel_index)
                for rec in net.graph.edges] == [(0, 1, 0), (0, 1, 1)]

    def test_zero_resistance_is_validation_error(self, tmp_path):
        path = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "r": 0}]})
        with pytest.raises(ValidationError):
            parse_network(path)

    def test_self_loop_is_validation_error(self, tmp_path):
        path = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "a", "r": 1},
                      {"u": "a", "v": "b", "r": 1}]})
        with pytest.raises(ValidationError):
            parse_network(path)

    def test_disconnected_is_validation_error(self, tmp_path):
        path = write_network(tmp_path, {
            "vertices": ["a", "b", "c"],
            "edges": [{"u": "a", "v": "b", "r": 1}]})
        with pytest.raises(ValidationError):
            parse_network(path)

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": ["a", "b"],\n  "edges": [}', "utf-8")
        with pytest.raises(ParseError, match="line 2"):
            parse_network(str(path))

    def test_missing_field_located(self, tmp_path):
        path = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b"}]})
        with pytest.raises(ParseError, match=r"edges\[0\]"):
            parse_network(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "r": 1, "ohms": 2}]})
        with pytest.raises(ParseError, match="ohms"):
            parse_network(path)

    @HUGE_RESISTANCES
    def test_huge_resistance_is_validation_error(self, tmp_path, literal):
        with pytest.raises(ValidationError, match=r"edges\[0\].*finite"):
            parse_network(write_single_edge(tmp_path, literal))

    def test_boolean_resistance_rejected(self, tmp_path):
        path = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "r": True}]})
        with pytest.raises(ParseError):
            parse_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_network(str(tmp_path / "absent.json"))

    @UNDECODABLE
    def test_undecodable_file_is_parse_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=re.escape(str(path))):
            parse_network(str(path))

    @pytest.mark.parametrize("doc", [
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": 1}]},
        {"vertices": ["a", "b", "c"], "edges": [
            {"u": "a", "v": "b", "r": 1}, {"u": "b", "v": "c", "r": 2.5}]},
        {"vertices": ["a", "b"], "edges": []},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": 0}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "z", "r": 1}]},
        {"vertices": ["a", "a"], "edges": [{"u": "a", "v": "a", "r": 1}]},
        {"vertices": ["a", "b"],
         "edges": [{"u": "a", "v": "b", "r": float("nan")}]},
        [], "net", 1, None, {},
        {"vertices": ["a", "b"]},
        {"edges": []},
        {"vertices": ["a", "b"], "edges": [], "name": "x"},
        {"vertices": "ab", "edges": []},
        {"vertices": None, "edges": []},
        {"vertices": ["a", 1], "edges": []},
        {"vertices": [], "edges": []},
        {"vertices": ["a"], "edges": []},
        {"vertices": ["a", "b"], "edges": {}},
        {"vertices": ["a", "b"], "edges": [1]},
        {"vertices": ["a", "b"], "edges": [{"v": "b", "r": 1}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}]},
        {"vertices": ["a", "b"],
         "edges": [{"u": "a", "v": "b", "r": 1, "ohms": 2}]},
        {"vertices": ["a", "b"], "edges": [{"u": 0, "v": "b", "r": 1}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": None, "r": 1}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": None}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": True}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": "1"}]},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "r": [1]}]},
        {"vertices": ["a", "b"], "edges": [
            {"u": "a", "v": "b", "r": -1}, {"u": "a", "v": "b"}]},
    ])
    def test_parse_error_exactly_when_schema_rejects(self, tmp_path, doc):
        try:
            jsonschema.validate(doc, NETWORK_SCHEMA)
            malformed = False
        except jsonschema.ValidationError:
            malformed = True
        try:
            parse_network(write_network(tmp_path, doc))
            raised_parse_error = False
        except ParseError:
            raised_parse_error = True
        except ValidationError:
            raised_parse_error = False
        assert raised_parse_error == malformed

    def test_data_files_validate_against_schema(self):
        for path in DATA.glob("*.json"):
            jsonschema.validate(json.loads(path.read_text("utf-8")),
                                NETWORK_SCHEMA)


class TestRoundTrip:
    def test_serialize_then_reparse(self, tmp_path):
        first = parse_network(str(DATA / "parallel_pair.json"))
        doc = serialize_network(first)
        second = parse_network(write_network(tmp_path, doc))
        assert first.graph == second.graph
        np.testing.assert_array_equal(first.resistances, second.resistances)
        assert serialize_network(second) == doc

    def test_random_networks_round_trip(self, tmp_path):
        # Integer vertex names are written as strings the schema accepts.
        for i in range(25):
            first = random_network(instance_rng(401, i))
            doc = serialize_network(first)
            jsonschema.validate(doc, NETWORK_SCHEMA)
            second = parse_network(write_network(tmp_path, doc))
            assert second.graph.vertices == tuple(
                str(v) for v in first.graph.vertices)
            assert second.graph.edges == first.graph.edges
            np.testing.assert_array_equal(first.resistances,
                                          second.resistances)
            assert serialize_network(second) == doc


class TestFmt:
    def test_ten_significant_digits(self):
        assert fmt(2.0 / 3.0) == "0.6666666667"
        assert fmt(1.2) == "1.2"
        assert fmt(0.0) == "0"


class TestCommands:
    def test_reff_parallel_pair(self, capsys):
        code = run_command(["reff", "--network", str(DATA / "parallel_pair.json"),
                            "--pair", "a,b"])
        assert code == EXIT_PASS
        assert capsys.readouterr().out == "0.6666666667\n"

    def test_gff_prints_both_routes(self, capsys):
        code = run_command(["gff", "--network", str(DATA / "triangle.json"),
                            "--pair", "a,b"])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "var_u = 0.6666666667" in out
        assert "reff  = 0.6666666667" in out

    def test_thomson_table(self, capsys):
        code = run_command(["thomson", "--network", str(DATA / "triangle.json"),
                            "--pair", "a,b"])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "power = 0.6666666667" in out
        assert "kcl_residual" in out and "kvl_residual" in out

    def test_verify_superadd(self, capsys):
        code = run_command([
            "verify", "superadd",
            "--network", str(DATA / "parallel_pair_base.json"),
            "--bar-network", str(DATA / "parallel_pair.json"),
            "--pair", "a,b"])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "margin=0.03333333333" in out
        assert "result: pass" in out

    def test_verify_entropy_values(self, capsys):
        code = run_command([
            "verify", "entropy",
            "--network", str(DATA / "parallel_pair_base.json"),
            "--bar-network", str(DATA / "parallel_pair.json"),
            "--pair", "a,b"])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "h_hat = 1.510099312" in out
        assert "h_sum = 1.496013873" in out

    def test_verify_entropy_bits_flag(self, capsys):
        base = ["verify", "entropy",
                "--network", str(DATA / "parallel_pair_base.json"),
                "--bar-network", str(DATA / "parallel_pair.json"),
                "--pair", "a,b"]
        run_command(base)
        nats = capsys.readouterr().out
        run_command(base + ["--bits"])
        bits = capsys.readouterr().out
        assert "h_hat = 1.510099312" in nats
        assert "h_hat = 2.178612788" in bits  # 1.510099... / ln 2
        # variances are not entropies and must not be rescaled
        assert "var_hat = 1.2" in nats and "var_hat = 1.2" in bits

    def test_verify_appendix_runs_without_network(self, capsys):
        code = run_command(["verify", "appendix", "--dim", "3", "--seed", "4"])
        assert code == EXIT_PASS
        assert "appendix_lemma" in capsys.readouterr().out

    def test_verify_mc(self, capsys):
        code = run_command(["verify", "mc",
                            "--network", str(DATA / "triangle.json"),
                            "--pair", "a,b",
                            "--samples", "50000", "--seed", "3"])
        assert code == EXIT_PASS
        assert "empirical_variance <= variance_high" in capsys.readouterr().out

    def test_wide_span_network_is_valid(self, capsys):
        # Resistances over [1e-6, 1e6]: the free field's own covariance used
        # to fail the PSD check, reporting a valid network as invalid.
        net = str(DATA / "wide_span.json")
        base = ["--network", net, "--pair", "3,2"]
        assert run_command(["gff", *base]) == EXIT_PASS
        assert run_command(["verify", "mc", *base, "--samples", "1000"]) \
            == EXIT_PASS
        assert run_command(["verify", "entropy", *base, "--bar-network", net]) \
            == EXIT_PASS
        assert capsys.readouterr().err == ""

    def test_picohm_network_is_valid(self, tmp_path, capsys):
        # Four parallel 1e-12 ohm edges: the entropy chain's variances of
        # 5e-13 used to count as point masses (exit 2) on a valid network.
        net = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "r": 1e-12}] * 4})
        base = ["--network", net, "--pair", "a,b"]
        assert run_command(["reff", *base]) == EXIT_PASS
        assert run_command(["verify", "entropy", *base, "--bar-network", net]) \
            == EXIT_PASS
        assert "result: pass" in capsys.readouterr().out

    def test_verify_scaling_and_monotone(self, capsys):
        assert run_command(["verify", "scaling",
                            "--network", str(DATA / "triangle.json"),
                            "--pair", "a,b", "--scale", "3.0"]) == EXIT_PASS
        assert run_command(["verify", "monotone",
                            "--network", str(DATA / "parallel_pair.json"),
                            "--pair", "a,b", "--edge", "0",
                            "--delta", "1.0"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "reff_scaled = 2" in out
        assert "reff_bumped = 1" in out

    def test_verify_concavity(self, capsys):
        code = run_command(["verify", "concavity",
                            "--network", str(DATA / "parallel_pair_base.json"),
                            "--bar-network", str(DATA / "parallel_pair.json"),
                            "--pair", "a,b", "--grid", "9"])
        assert code == EXIT_PASS
        assert "second_diff_max" in capsys.readouterr().out

    def test_suite_small(self, capsys):
        code = run_command(["suite", "--seed", "5", "--instances", "2"])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "overall: pass" in out

    def test_suite_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GFFRESIST_SEED", "99")
        run_command(["suite", "--instances", "1"])
        assert "seed=99" in capsys.readouterr().out


class TestJsonOutput:
    def validate(self, out):
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        return doc

    def test_reff_json(self, capsys):
        run_command(["reff", "--network", str(DATA / "parallel_pair.json"),
                     "--pair", "a,b", "--format", "json"])
        doc = self.validate(capsys.readouterr().out)
        assert doc["name"] == "effective_resistance"
        assert doc["quantities"]["reff"] == pytest.approx(2 / 3)

    def test_thomson_json(self, capsys):
        run_command(["thomson", "--network", str(DATA / "triangle.json"),
                     "--pair", "a,b", "--format", "json"])
        doc = self.validate(capsys.readouterr().out)
        assert "current[0]" in doc["quantities"]

    def test_verify_json(self, capsys):
        run_command(["verify", "melvin",
                     "--network", str(DATA / "parallel_pair_base.json"),
                     "--bar-network", str(DATA / "parallel_pair.json"),
                     "--pair", "a,b", "--format", "json"])
        doc = self.validate(capsys.readouterr().out)
        assert doc["pass"] is True
        rels = [iq["rel"] for iq in doc["inequalities"]]
        assert rels == ["==", ">=", "=="]

    def test_degenerate_entropy_serializes_as_null(self, capsys):
        # dim-1 appendix instance with seed chosen so conditioning kills V
        run_command(["verify", "appendix", "--dim", "1", "--seed", "0",
                     "--format", "json"])
        doc = self.validate(capsys.readouterr().out)
        assert doc["pass"] is True

    def test_suite_json(self, capsys):
        run_command(["suite", "--seed", "5", "--instances", "1",
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert set(doc["checks"]) == {
            "superadditivity", "melvin_chain", "entropy_chain",
            "scaling", "monotonicity", "concavity"}


class TestExitCodes:
    def test_usage_error(self):
        assert run_command([]) == EXIT_USAGE
        assert run_command(["reff"]) == EXIT_USAGE
        assert run_command(["verify", "nonsense"]) == EXIT_USAGE

    def test_malformed_pair(self):
        assert run_command(["reff", "--network", str(DATA / "triangle.json"),
                            "--pair", "a"]) == EXIT_USAGE

    def test_unknown_vertex_in_pair(self):
        assert run_command(["reff", "--network", str(DATA / "triangle.json"),
                            "--pair", "a,z"]) == EXIT_USAGE

    def test_same_vertex_pair(self):
        assert run_command(["reff", "--network", str(DATA / "triangle.json"),
                            "--pair", "a,a"]) == EXIT_USAGE

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", "utf-8")
        assert run_command(["reff", "--network", str(path),
                            "--pair", "a,b"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_validation_error_exit(self, tmp_path, capsys):
        path = write_network(tmp_path, {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "r": -1.0}]})
        assert run_command(["reff", "--network", path,
                            "--pair", "a,b"]) == EXIT_INVALID_NETWORK
        assert "error:" in capsys.readouterr().err

    @HUGE_RESISTANCES
    def test_huge_resistance_exit(self, tmp_path, capsys, literal):
        path = write_single_edge(tmp_path, literal)
        assert run_command(["reff", "--network", path,
                            "--pair", "a,b"]) == EXIT_INVALID_NETWORK
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @UNDECODABLE
    def test_undecodable_file_exits_two(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run_command(["reff", "--network", str(path),
                            "--pair", "a,b"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("literal", ["0", "-1", "1e-13", "1e400", "NaN"])
    def test_bad_resistance_exits_three_naming_its_edge(self, tmp_path, capsys,
                                                        literal):
        path = tmp_path / "net.json"
        path.write_text('{"vertices": ["a", "b"], "edges": ['
                        '{"u": "a", "v": "b", "r": 1}, '
                        f'{{"u": "b", "v": "a", "r": {literal}}}]}}', "utf-8")
        assert run_command(["reff", "--network", str(path),
                            "--pair", "a,b"]) == EXIT_INVALID_NETWORK
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: edges[1]: resistance ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("check, unread", [
        ("superadd", ["--grid", "5"]),
        ("melvin", ["--bits"]),
        ("entropy", ["--scale", "3"]),
        ("concavity", ["--samples", "10"]),
        ("scaling", ["--bar-network", str(DATA / "triangle.json")]),
        ("monotone", ["--dim", "2"]),
        ("appendix", ["--network", str(DATA / "triangle.json")]),
        ("mc", ["--tol", "0.5"]),
    ])
    def test_option_the_check_does_not_read_exits_two(self, capsys, check,
                                                      unread):
        argv = (["verify", "appendix"] if check == "appendix" else
                triangle_check(check, bar="--bar-network" in
                               VERIFY_OPTIONS[check]))
        assert unread[0] not in VERIFY_OPTIONS[check]
        assert run_command(argv + unread) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "unrecognized arguments: " + " ".join(unread) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("check", sorted(VERIFY_OPTIONS))
    def test_help_lists_exactly_the_check_options(self, capsys, check):
        assert run_command(["verify", check, "--help"]) == EXIT_PASS
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)",
                            capsys.readouterr().out, re.M)
        assert sorted(listed) == sorted(VERIFY_OPTIONS[check] | {"--help"})

    def test_one_vertex_file_exits_two(self, tmp_path, capsys):
        path = write_network(tmp_path, {"vertices": ["a"], "edges": []})
        assert run_command(["reff", "--network", path,
                            "--pair", "a,b"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {path}: vertices needs at least 2 items\n"

    @pytest.mark.parametrize("argv, env_seed", [
        (["verify", "appendix", "--seed", "-1"], None),
        (["verify", "mc", "--network", str(DATA / "triangle.json"),
          "--pair", "a,b", "--seed", "-1"], None),
        (["suite", "--seed", "-1", "--instances", "1"], None),
        (["verify", "appendix", "--dim", "0"], None),
        (["verify", "appendix", "--dim", "-2"], None),
        (["suite", "--instances", "1"], "abc"),
        (["suite", "--instances", "1"], "-1"),
        (["suite", "--instances", "0"], None),
        (["suite", "--instances", "-3"], None),
        (triangle_check("mc") + ["--samples", "0"], None),
        (triangle_check("mc") + ["--samples", "-5"], None),
        (triangle_check("concavity", bar=True) + ["--grid", "2"], None),
        (triangle_check("monotone") + ["--edge", "9"], None),
        (triangle_check("monotone") + ["--edge", "-1"], None),
        (triangle_check("monotone") + ["--delta", "0"], None),
        (triangle_check("monotone") + ["--delta", "nan"], None),
        (triangle_check("scaling") + ["--scale", "-1"], None),
        (triangle_check("scaling") + ["--scale", "0"], None),
        (triangle_check("scaling") + ["--scale", "nan"], None),
        (triangle_check("superadd", bar=True) + ["--tol", "inf"], None),
        (triangle_check("superadd", bar=True) + ["--tol", "nan"], None),
        (triangle_check("superadd", bar=True) + ["--tol", "-1"], None),
        (["suite", "--instances", "1", "--tol", "inf"], None),
        (["suite", "--instances", "1", "--tol", "nan"], None),
        (["suite", "--instances", "1", "--tol", "-1"], None),
    ], ids=["appendix-seed-neg", "mc-seed-neg", "suite-seed-neg", "dim-0",
            "dim-neg", "env-seed-abc", "env-seed-neg", "instances-0",
            "instances-neg", "samples-0", "samples-neg", "grid-2", "edge-9",
            "edge-neg", "delta-0", "delta-nan", "scale-neg", "scale-0",
            "scale-nan", "verify-tol-inf", "verify-tol-nan", "verify-tol-neg",
            "suite-tol-inf", "suite-tol-nan", "suite-tol-neg"])
    def test_bad_numeric_option_exits_two(self, capsys, monkeypatch, argv,
                                          env_seed):
        if env_seed is None:
            monkeypatch.delenv("GFFRESIST_SEED", raising=False)
        else:
            monkeypatch.setenv("GFFRESIST_SEED", env_seed)
        assert run_command(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_topology_mismatch(self, capsys):
        code = run_command([
            "verify", "superadd",
            "--network", str(DATA / "parallel_pair.json"),
            "--bar-network", str(DATA / "triangle.json"),
            "--pair", "a,b"])
        assert code == EXIT_USAGE
        assert "topology mismatch" in capsys.readouterr().err

    def test_missing_bar_network(self, capsys):
        code = run_command([
            "verify", "melvin",
            "--network", str(DATA / "parallel_pair.json"),
            "--pair", "a,b"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_failed_inequality_exits_one(self, tmp_path, capsys):
        # Two draws (seed 36924) across one 1-ohm edge have an empirical
        # variance of 12.2, above the chi-square(2) bound 10.36 of the
        # check's two-sided 6.3e-5 tail. With one edge each draw is the
        # generator's normal times +-1, so the variance does not hang on a
        # sign.
        code = run_command([
            "verify", "mc", "--network", write_single_edge(tmp_path, "1"),
            "--pair", "a,b", "--samples", "2", "--seed", "36924"])
        assert code == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "empirical_variance <= variance_high  margin=-1.86" in out
        assert "result: FAIL" in out


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = ["verify", "entropy",
                "--network", str(DATA / "parallel_pair_base.json"),
                "--bar-network", str(DATA / "parallel_pair.json"),
                "--pair", "a,b"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second
