"""CLI contract tests: exit codes, CSV shape, determinism, atomicity."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import stat
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from espd import cli
from espd.cli import main


def write_config(path, **overrides):
    data = {
        "eta0": 0.59,
        "d0": 0.01,
        "p": 0.98,
        "P": 0.97,
        "Q": 0.002,
        "schedule": [[4, 1]] + [[4, 2]] * 7,
    }
    data.update(overrides)
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# arbitrary JSON: nested arrays and objects, NaN, infinities, huge ints
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_NUMBERS = st.sampled_from([-0.0, 5e-324, 1e-30, 1e308, -1.0, 1.5, 2**64, 10**400]) | st.floats()
_KEYS = ("eta0", "d0", "p", "P", "Q", "schedule", "max_levels", "out")
_PAIRS = st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda t: [max(t), min(t)])
_VALID = st.fixed_dictionaries(
    {**dict.fromkeys(_KEYS[:5], st.floats(0.0, 1.0)),
     "schedule": st.lists(_PAIRS, min_size=1, max_size=4)},
    optional={"max_levels": st.integers(1, 4), "out": st.text(min_size=1, max_size=4)},
)
_ENTRIES = _PAIRS | st.lists(st.integers(-1, 70) | _NUMBERS | _JSON, min_size=2, max_size=2) | _JSON
_DROP = object()
# up to two edits of a valid config: drop a key, or set a known or unknown
# key to a malformed value (a schedule of malformed entries included)
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(_KEYS) | st.text(max_size=4),
        st.just(_DROP) | _NUMBERS | _JSON | st.lists(_ENTRIES, max_size=4),
    ),
    max_size=2,
)


def _edited(config, edits):
    for key, value in edits:
        if value is _DROP:
            config.pop(key, None)
        else:
            config[key] = value
    return config


def _few_levels(config):
    # a valid max_levels above 4 would let one example compute up to 1000 levels
    levels = config.get("max_levels") if isinstance(config, dict) else None
    return not (type(levels) is int and 4 < levels <= 1000)


_CONFIGS = (st.builds(_edited, _VALID, _EDITS) | _JSON).filter(_few_levels)


class TestIterate:
    def test_writes_trajectory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "traj.csv"
        assert main(["iterate", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,n,k,de,dcr"
        assert len(lines) == 10  # header + levels 0..8
        level1 = lines[2].split(",")
        assert level1[:3] == ["1", "4", "1"]
        assert float(level1[3]) == pytest.approx(0.974, abs=1e-3)
        assert float(level1[4]) == pytest.approx(5.3e-2, rel=0.10)

    def test_levels_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "traj.csv"
        assert main(["iterate", str(cfg), "--levels", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_byte_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["iterate", str(cfg), "--out", str(out1)])
        main(["iterate", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_schedule_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", schedule=[])
        assert main(["iterate", str(cfg)]) == 2
        assert "schedule" in capsys.readouterr().err

    def test_out_of_range_field_names_bound(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", Q=1.5)
        assert main(["iterate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "Q" in err and "[0, 1]" in err

    def test_json_error_is_line_precise(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "eta0": 0.5,\n  broken\n}', encoding="utf-8")
        assert main(["iterate", str(cfg)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["iterate", str(tmp_path / "nope.json")]) == 2

    def test_boolean_schedule_entry_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", schedule=[[True, True]])
        assert main(["iterate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "schedule[0]" in err

    @pytest.mark.parametrize(
        "field",
        [
            {"eta0": "0.59"},
            {"d0": True},
            {"max_levels": True},
            {"max_levels": 1001},
            {"eta_tol": float("nan")},
            {"eta0": 10**400},
            {"schedule": [[4, 2.0]]},
            {"schedule": [[4]]},
        ],
    )
    def test_non_numeric_or_out_of_cap_field_rejected(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path / "cfg.json", **field)
        assert main(["iterate", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        # every error in a run.json names the file
        assert err.startswith(f"error: {cfg}: ") and next(iter(field)) in err

    def test_levels_flag_capped(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "t.csv"
        assert main(["iterate", str(cfg), "--levels", "1001", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_levels_flag_error_names_the_flag_not_the_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = str(tmp_path / "t.csv")
        assert main(["iterate", str(cfg), "--levels", "0", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: --levels must be an integer in [1, 1000], got 0\n"
        )
        bad = write_config(tmp_path / "bad.json", max_levels=0)
        assert main(["iterate", str(bad), "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: max_levels must be an integer in [1, 1000], got 0\n"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "top level must be a JSON object"),
            ('{"eta0": 0.59, "d0": 0.01, "p": 0.98, "P": 0.97, "schedule": [[4, 1]]}',
             "missing key 'Q'"),
            ('{"eta0": 0.59, "d0": 0.01, "p": 0.98, "P": 0.97, "Q": 0.002,'
             ' "schedule": [[4, 1]], "out": 5}', "out must be a string path"),
            ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
        ],
        ids=["not-object", "missing-key", "non-string-out", "deeply-nested"],
    )
    def test_malformed_config_rejected(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        assert main(["iterate", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_no_partial_file_on_failure(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", schedule=[])
        out = tmp_path / "traj.csv"
        main(["iterate", str(cfg), "--out", str(out)])
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(config=_CONFIGS)
    def test_generated_config_exits_cleanly(self, tmp_path_factory, config):
        tmp = tmp_path_factory.getbasetemp()
        cfg = tmp / "generated.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["iterate", str(cfg), "--out", str(tmp / "generated.csv")])
        assert code in (0, 2)
        lines = err.getvalue().split("\n")
        if code:
            assert len(lines) == 2 and lines[0].startswith("error: ") and not lines[1], lines
        else:
            assert lines == [""], lines


class TestTables:
    def test_reference_table_passes(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        assert main(["tables", "--table", "2", "--out", str(out)]) == 0
        assert "24/24" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("series,level,n,k,de_expected_pct")
        assert len(lines) == 1 + 24

    def test_unknown_table(self, tmp_path, capsys):
        assert main(["tables", "--table", "9"]) == 2
        assert capsys.readouterr().err == "error: unknown table 9; available: [2, 3, 4, 5, 6, 7]\n"

    def test_exit_code_tracks_report(self, tmp_path, capsys):
        # Exit 1 iff the written report contains out-of-tolerance cells.
        for table in (3, 4, 5, 6, 7):
            out = tmp_path / f"t{table}.csv"
            code = main(["tables", "--table", str(table), "--out", str(out)])
            body = out.read_text().splitlines()[1:]
            all_ok = all(
                row.split(",")[8] == "1" and row.split(",")[13] == "1" for row in body
            )
            assert code == (0 if all_ok else 1)

    def test_written_file_mode_follows_umask(self, tmp_path):
        # a report gets the permissions a plain open(path, "w") would give it
        out = tmp_path / "t2.csv"
        old = os.umask(0o022)
        try:
            assert main(["tables", "--table", "2", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert [p.name for p in tmp_path.iterdir()] == ["t2.csv"]

    def test_out_is_directory(self, tmp_path, capsys):
        # the rename onto a directory fails: exit 1, and the temporary file goes
        out = tmp_path / "report"
        out.mkdir()
        assert main(["tables", "--table", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # the error names the directory, not the removed temporary file
        assert repr(str(out)) in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["report"]

    def test_approx_variant_runs(self, tmp_path):
        out = tmp_path / "t2a.csv"
        code = main(["tables", "--table", "2", "--variant", "approx", "--out", str(out)])
        assert code in (0, 1)
        assert out.exists()


class TestOptimize:
    def test_unattainable_target_notice(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = main(
            ["optimize", "--de-target", "1.01", "--dcr-target", "1e-9",
             "--max-levels", "2", "--n-max", "4", "--out", str(out)]
        )
        assert code == 0
        assert "no feasible schedule" in capsys.readouterr().out
        assert out.read_bytes() == b"schedule,cost,de,dcr\n"

    def test_top_one(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(
            ["optimize", "--de-target", "0.9", "--dcr-target", "1e-3",
             "--max-levels", "2", "--n-max", "5", "--top", "1", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2

    def test_byte_deterministic(self, tmp_path):
        args = ["optimize", "--de-target", "0.95", "--dcr-target", "1e-4",
                "--max-levels", "3", "--n-max", "6", "--top", "20"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_space_bounds(self, tmp_path, capsys):
        assert main(
            ["optimize", "--de-target", "0.9", "--dcr-target", "1e-3",
             "--max-levels", "9", "--n-max", "4"]
        ) == 2

    def test_negative_top_rejected(self, capsys):
        assert main(
            ["optimize", "--de-target", "0.9", "--dcr-target", "1e-3",
             "--max-levels", "2", "--n-max", "4", "--top", "-3"]
        ) == 2

    @pytest.mark.parametrize("flag", ["--de-target", "--dcr-target"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_target_rejected(self, tmp_path, capsys, flag, value):
        targets = {"--de-target": "0.9", "--dcr-target": "1e-3", flag: value}
        # --flag=value, since argparse takes a bare "-inf" for an option
        argv = ["optimize", *(f"{name}={val}" for name, val in targets.items()),
                "--max-levels", "2", "--n-max", "4", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "s.csv").exists()

    # SHA-256 of each query's CSV: a change to any value, row or order of the
    # ranking changes it (criterion 10 holds the search output byte-stable).
    # The third and fourth are the full listing at --max-levels 4 --n-max 8
    # (37,546 rows) and its Pareto front (896 rows).  The last is the 50
    # cheapest at --n-max 12, where the cost gate passes parent prefixes
    # (the later --top overrides --top 0).
    @pytest.mark.parametrize(
        "extra,digest",
        [
            (["--max-levels", "3", "--n-max", "6"],
             "27880e1c92ccc8de9836773786994a01c0fc961d26160bf81d5af9abef7b030f"),
            (["--max-levels", "3", "--n-max", "6", "--pareto"],
             "b43eae09eb4baee349f7b30cc72ded57b2b4958f2072bcd2d28482f671e82544"),
            (["--max-levels", "4", "--n-max", "8"],
             "8e9efee8c845b0b5f013e998aef945643f993efc2e678c6abcca9dd895c8c43a"),
            (["--max-levels", "4", "--n-max", "8", "--pareto"],
             "40c9fe1e629962c460b13024f571caacb102cd6309b32855a34d0600a4489929"),
            (["--max-levels", "4", "--n-max", "12", "--top", "50"],
             "1575284a91cafd1379d865951cba524df1ca45614841c990085e3275fbd48733"),
        ],
    )
    def test_search_csv_bytes_pinned(self, tmp_path, extra, digest):
        out = tmp_path / "s.csv"
        assert main(
            ["optimize", "--de-target", "0.93", "--dcr-target", "1e-9", "--top", "0",
             *extra, "--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("write_lines", [1, 7])
    def test_csv_bytes_do_not_depend_on_write_batch(self, tmp_path, monkeypatch, write_lines):
        # rows formatted and written a few at a time: the first pinned digest
        monkeypatch.setattr(cli, "WRITE_LINES", write_lines)
        out = tmp_path / "s.csv"
        assert main(
            ["optimize", "--de-target", "0.93", "--dcr-target", "1e-9", "--top", "0",
             "--max-levels", "3", "--n-max", "6", "--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "27880e1c92ccc8de9836773786994a01c0fc961d26160bf81d5af9abef7b030f"
        )

    def test_full_listing_memory(self, tmp_path):
        # cli.main's tracemalloc peak on the full listing at --n-max 8 (37,546
        # rows): 25.6 MiB with the last level's tables built for its whole
        # frontier and every CSV row held at once, 13.8 MiB with only the
        # search run over blocks, 6.6 MiB with the rows also formatted and
        # written a chunk at a time.
        import espd.optimize  # noqa: F401 -- numpy's import is not the command's

        out = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            code = main(
                ["optimize", "--de-target", "0.93", "--dcr-target", "1e-9", "--top", "0",
                 "--max-levels", "4", "--n-max", "8", "--out", str(out)]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(out.read_bytes().splitlines()) == 1 + 37_546
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("exc", [OSError, MemoryError])
    def test_row_failure_midway_keeps_old_file(self, tmp_path, capsys, monkeypatch, exc):
        # the first batch is written when the row source fails: exit 1, one
        # error line, no temporary file left, and the old output unchanged
        monkeypatch.setattr(cli, "WRITE_LINES", 2)
        rows = cli._schedule_rows

        def failing(results):
            assert len(results) > 3
            yield from itertools.islice(rows(results), 3)
            raise exc("injected")

        monkeypatch.setattr(cli, "_schedule_rows", failing)
        out = tmp_path / "s.csv"
        out.write_text("old\n")
        assert main(
            ["optimize", "--de-target", "0.9", "--dcr-target", "1e-3", "--top", "0",
             "--max-levels", "2", "--n-max", "4", "--out", str(out)]
        ) == 1
        assert capsys.readouterr().err == "error: injected\n"
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
        assert out.read_text() == "old\n"

    def test_top_beyond_listing_writes_full_listing(self, tmp_path):
        # --top above the 37,546-row listing: the pinned --top 0 digest
        out = tmp_path / "s.csv"
        assert main(
            ["optimize", "--de-target", "0.93", "--dcr-target", "1e-9", "--top", "1000000",
             "--max-levels", "4", "--n-max", "8", "--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8e9efee8c845b0b5f013e998aef945643f993efc2e678c6abcca9dd895c8c43a"
        )

    # SHA-256 of each golden report and figure panel: a change to any value
    # on the exact or the approx golden path changes one of them.
    @pytest.mark.parametrize(
        "extra,digest",
        [
            (["--table", "2"], "a476f0110cfdb1b39415e839848489df1b7c45ab667242d792ee3f2f836c2286"),
            (["--table", "3"], "1b0b0d71613edf3ec908c659ff5f6f52367e0c3d818ea50ee0b07bac7275161f"),
            (["--table", "4"], "789a254b08dd7df40ea0609619cc12f5b0dc2a8d1387d1696f2b92ce1d18fe78"),
            (["--table", "5"], "4ddfd71dc729f3808387e08c710869fd6e9954e888ca30f9e193cd0b08265ede"),
            (["--table", "6"], "94613ccaeb9c17e8536affe44144ca0e6b7a07e5749b901d23e9f5b9a2189410"),
            (["--table", "7"], "5949a7024acd3dbae225494885117fcced2908ae6ba1704defe25e3113e93d2b"),
            (["--table", "4", "--variant", "approx"],
             "6073b0ea17ac59384268c3ce0b1432e873fec6306f6be6aed3b162809d154388"),
        ],
    )
    def test_table_csv_bytes_pinned(self, tmp_path, extra, digest):
        out = tmp_path / "t.csv"
        # tables 3-5 carry published misprints, so they exit 1
        assert main(["tables", *extra, "--out", str(out)]) in (0, 1)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "figure,digests",
        [
            (2, {"fig2_seed59_de": "af979d6ad129312efa3937710d8101f03691233ba1268d4bd57c9645eaa3fafe",
                 "fig2_seed59_dcr": "d09cd4aae68b50495f48140d977089c84c085ee0cc29e0b18977700bb5d26ed2",
                 "fig2_seed27_de": "e0477aae6dd74aba72e8c108f3d88ef138fb519a068fb0cd706ae434a9d8f578",
                 "fig2_seed27_dcr": "fae2d53191e857e1e5c64e77cf80c6c538059924436820084bb8573e88498edd"}),
            (3, {"fig3_de": "4208f6a0b45f346d4bb8ad1bbadcc7d0005bdb768f5892696b59dc764ae684f8",
                 "fig3_dcr": "5a67c4d1e114d4e3ed13b6f1edd3949a4a6a3642ccbce7a2e52c302bfb6426ba"}),
            (4, {"fig4_P080_de": "c909c950a6c2c14703b524420d4c74b2d4bc73a352c2ceb593507a387e25c4f2",
                 "fig4_P080_dcr": "c3e9c1ceb4a941429161a16fef4c78a70cc58bca58362fc66ecb34a36cefaef9",
                 "fig4_P040_de": "5a5d6a254478b3fe2d597c15092ae5f87e83e29047ae57a37544ba27f014afcb",
                 "fig4_P040_dcr": "c2e3e72d9d58aff21eddf68af8b0828e10b2dc70d934b0d4b764202aec85c281"}),
            (5, {"fig5_de": "4919018e01b29d017023518ca93b60534478b6af54b2da458754ada9df569e2d",
                 "fig5_dcr": "082a4bd0df4fff3da0984a370a030100306d550a14eaedbde0c98c2ee32a3fb2"}),
        ],
    )
    def test_figure_csv_bytes_pinned(self, tmp_path, figure, digests):
        assert main(["figdata", "--figure", str(figure), "--out-dir", str(tmp_path)]) == 0
        got = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == digests

    def test_pareto_flag_subsets_ranking(self, tmp_path):
        base = ["optimize", "--de-target", "0.9", "--dcr-target", "1e-3",
                "--max-levels", "2", "--n-max", "5", "--top", "30"]
        full, front = tmp_path / "full.csv", tmp_path / "front.csv"
        assert main(base + ["--out", str(full)]) == 0
        assert main(base + ["--pareto", "--out", str(front)]) == 0
        full_rows = set(full.read_text().splitlines()[1:])
        front_rows = front.read_text().splitlines()[1:]
        assert front_rows
        assert set(front_rows) <= full_rows


class TestOracle:
    def test_reference_point_passes(self, capsys):
        assert main(["oracle", "--n", "4", "--k", "1",
                     "--trials", "100000", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "enum_within_1e-12=yes" in out
        assert "mc_within_5_stderr=yes" in out

    def test_byte_identical_reports(self, capsys):
        main(["oracle", "--n", "4", "--k", "1", "--trials", "50000", "--seed", "42"])
        first = capsys.readouterr().out
        main(["oracle", "--n", "4", "--k", "1", "--trials", "50000", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second

    def test_thread_count_invariant(self, capsys):
        main(["oracle", "--n", "5", "--k", "2", "--trials", "200000",
              "--seed", "7", "--threads", "1"])
        one = capsys.readouterr().out
        main(["oracle", "--n", "5", "--k", "2", "--trials", "200000",
              "--seed", "7", "--threads", "4"])
        four = capsys.readouterr().out
        assert one == four

    def test_enumeration_cap(self, capsys):
        assert main(["oracle", "--n", "17", "--k", "1"]) == 2

    @pytest.fixture
    def no_oracle_work(self, monkeypatch):
        from espd import _kernels, oracle

        def started(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        for owner, name in ((oracle, "enumerate_level"), (oracle, "ThreadPoolExecutor"),
                            (_kernels, "mc_block")):
            monkeypatch.setattr(owner, name, started)

    @pytest.mark.parametrize(
        "n,message",
        [("17", "enumeration supports n <= 16, got n=17"),
         ("100", "n must be an integer in [1, 64], got 100")],
    )
    def test_enumeration_cap_message(self, no_oracle_work, capsys, n, message):
        assert main(["oracle", "--n", n, "--k", "1", "--trials", "1000000000"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_monte_carlo_miss_exits_1(self, capsys, monkeypatch):
        from espd import oracle

        real = oracle.mc_level

        def biased(*args, **kwargs):
            de, *rest = real(*args, **kwargs)
            return (de - 0.01, *rest)

        monkeypatch.setattr(oracle, "mc_level", biased)
        assert main(["oracle", "--n", "4", "--k", "1",
                     "--trials", "100000", "--seed", "42"]) == 1
        out = capsys.readouterr().out
        assert "enum_within_1e-12=yes" in out
        assert "mc_within_5_stderr=no" in out

    @pytest.mark.parametrize("flag", ["--trials", "--threads"])
    def test_zero_count_rejected(self, no_oracle_work, capsys, flag):
        assert main(["oracle", "--n", "4", "--k", "1", flag, "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:] in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range_rejected(self, no_oracle_work, capsys, seed):
        assert main(["oracle", "--n", "4", "--k", "1", "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be an integer")


class TestQkd:
    def test_zero_dark_count(self, capsys):
        assert main(["qkd", "--e-th", "0.11", "--e-c", "0.02",
                     "--eta", "0.9", "--dcr", "0"]) == 0
        out = capsys.readouterr().out
        assert "gamma_exact=0" in out
        assert "gamma_approx=0" in out

    def test_reference_point_forms_agree(self, capsys):
        assert main(["qkd", "--e-th", "0.11", "--e-c", "0.02",
                     "--eta", "0.934", "--dcr", "8.5e-10"]) == 0
        out = capsys.readouterr().out
        exact = float(out.split("gamma_exact=")[1].split()[0])
        approx = float(out.split("gamma_approx=")[1].split()[0])
        assert abs(exact - approx) / exact <= 0.01
        assert "assumed e=" in out

    def test_error_ordering_rejected(self, capsys):
        assert main(["qkd", "--e-th", "0.1", "--e-c", "0.2",
                     "--eta", "0.9", "--dcr", "1e-6"]) == 2

    def test_compute_failure_exits_1(self, capsys):
        # valid inputs, but e = 1 drives the exact denominator below zero
        assert main(["qkd", "--e-th", "0.11", "--e-c", "0.02", "--e", "1",
                     "--eta", "0.9", "--dcr", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: gamma denominator")

    @pytest.mark.parametrize("approx", [[], ["--approx"]])
    def test_infinite_gamma_exits_1(self, capsys, approx):
        # valid inputs whose threshold overflows: a compute failure, no gamma line
        assert main(["qkd", "--e-th", "0.11", "--e-c", "0.02",
                     "--eta", "1e-320", "--dcr", "1", *approx]) == 1
        out, err = capsys.readouterr()
        assert "gamma_" not in out
        assert err.startswith("error: gamma is not finite")

    def test_zero_eta_rejected(self, capsys):
        assert main(["qkd", "--e-th", "0.11", "--e-c", "0.02",
                     "--eta", "0", "--dcr", "1e-6"]) == 2
        assert capsys.readouterr().err == "error: eta must be > 0\n"

    def test_approx_only(self, capsys):
        assert main(["qkd", "--e-th", "0.11", "--e-c", "0.02",
                     "--eta", "0.9", "--dcr", "1e-6", "--approx"]) == 0
        out = capsys.readouterr().out
        assert "gamma_exact" not in out
        assert "gamma_approx=" in out


class TestFigdata:
    def test_figure_two_emits_four_panels(self, tmp_path):
        assert main(["figdata", "--figure", "2", "--out-dir", str(tmp_path)]) == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == [
            "fig2_seed27_dcr.csv",
            "fig2_seed27_de.csv",
            "fig2_seed59_dcr.csv",
            "fig2_seed59_de.csv",
        ]
        lines = (tmp_path / "fig2_seed59_de.csv").read_text().splitlines()
        assert lines[0] == "level,series_label,value"
        # three series x levels 0..8
        assert len(lines) == 1 + 3 * 9

    def test_figure_five_emits_two_panels(self, tmp_path):
        assert main(["figdata", "--figure", "5", "--out-dir", str(tmp_path)]) == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == ["fig5_dcr.csv", "fig5_de.csv"]

    def test_de_panels_in_percent(self, tmp_path):
        main(["figdata", "--figure", "5", "--out-dir", str(tmp_path)])
        de_rows = (tmp_path / "fig5_de.csv").read_text().splitlines()[1:]
        dcr_rows = (tmp_path / "fig5_dcr.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) > 1.0 for r in de_rows)
        assert all(float(r.split(",")[2]) < 1.0 for r in dcr_rows)

    def test_unknown_figure(self, capsys):
        assert main(["figdata", "--figure", "7"]) == 2
        assert capsys.readouterr().err == "error: unknown figure 7; available: [2, 3, 4, 5]\n"

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert main(["figdata", "--figure", "5",
                     "--out-dir", str(blocker / "sub")]) == 1


class TestEnvDefaultOutDir:
    def test_out_dir_env_used(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ESPD_OUT_DIR", str(tmp_path))
        assert main(["figdata", "--figure", "5"]) == 0
        assert (tmp_path / "fig5_de.csv").exists()


class TestFixedPoints:
    def test_reference_config(self, capsys):
        assert main(["fixedpoints", "--n", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "root=" in out

    def test_reference_config_output_pinned(self, capsys):
        assert main(["fixedpoints", "--n", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out.encode()
        digest = "d7e7e95bb951ae9929447d617267d788a88cb37e523e77241747d2355ead1bdb"
        assert hashlib.sha256(out).hexdigest() == digest

    def test_n8_k4_output_pinned(self, capsys):
        assert main(["fixedpoints", "--n", "8", "--k", "4"]) == 0
        assert capsys.readouterr().out == (
            "root=0.38419950141906734\n"
            "root=0.84957808303833016\n"
            "gain_positive_interval=0.38419999999999999,0.84950000000000003\n"
        )

    def test_no_roots(self, capsys):
        # a lossy-everything module (p = 0) has no positive fixed point
        assert main(["fixedpoints", "--p", "0", "--n", "4", "--k", "2"]) == 0
        assert capsys.readouterr().out == "no roots in (0, 1]\n"

    @pytest.mark.parametrize("n", ["65", "70", "10000"])
    def test_n_above_cap_rejected(self, capsys, n):
        assert main(["fixedpoints", "--n", n, "--k", "2", "--grid", "100"]) == 2
        assert capsys.readouterr().err.startswith("error: n must be")

    def test_grid_above_cap_rejected(self, capsys):
        assert main(["fixedpoints", "--n", "4", "--k", "2", "--grid", "100000000"]) == 2
        assert capsys.readouterr().err.startswith("error: grid must be")


class TestErrorBoundary:
    """main() turns ValueError into exit 2, OSError and MemoryError into exit 1, one line each."""

    @staticmethod
    def _argv(command, tmp_path, out):
        cfg = write_config(tmp_path / "cfg.json")
        return {
            "iterate": ["iterate", str(cfg), "--out", out],
            "tables": ["tables", "--table", "2", "--out", out],
            "optimize": ["optimize", "--de-target", "0.9", "--dcr-target", "1e-3",
                         "--max-levels", "2", "--n-max", "4", "--out", out],
            "oracle": ["oracle", "--n", "4", "--k", "1", "--trials", "1000"],
            "qkd": ["qkd", "--e-th", "0.11", "--e-c", "0.02", "--eta", "0.9", "--dcr", "1e-6"],
            "figdata": ["figdata", "--figure", "5", "--out-dir", str(tmp_path / "figs")],
            "fixedpoints": ["fixedpoints", "--n", "4", "--k", "2", "--grid", "100"],
        }[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ["tables", "--table", "2", "--out", ""],
            ["optimize", "--de-target", "0.9", "--dcr-target", "1e-3",
             "--max-levels", "2", "--n-max", "4", "--out", ""],
            ["iterate", "cfg.json", "--out", ""],
            ["iterate", "empty_out.json"],
            ["figdata", "--figure", "3", "--out-dir", ""],
        ],
        ids=["tables", "optimize", "iterate-flag", "iterate-config", "figdata"],
    )
    def test_empty_output_path_is_bad_input(self, tmp_path, capsys, monkeypatch, argv):
        # an empty path names no file: it must not fall back to a default one
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ESPD_OUT_DIR", str(tmp_path / "default"))
        write_config(tmp_path / "cfg.json")
        write_config(tmp_path / "empty_out.json", out="")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "empty_out.json"]

    def test_optimize_checks_out_before_searching(self, tmp_path, capsys, monkeypatch):
        # the search can take seconds; an empty --out is rejected without it
        monkeypatch.setattr("espd.optimize.search_schedules", pytest.fail)
        assert main(self._argv("optimize", tmp_path, "")) == 2
        assert capsys.readouterr().err == "error: output path must not be empty\n"

    @pytest.mark.parametrize("command", ["iterate", "tables", "optimize"])
    def test_unwritable_out(self, tmp_path, capsys, command):
        (tmp_path / "blocker").write_text("file, not a directory")
        out = tmp_path / "blocker" / "sub" / "out.csv"
        assert main(self._argv(command, tmp_path, str(out))) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["blocker", "cfg.json"]

    @pytest.mark.parametrize(
        "command,module,name",
        [
            ("iterate", "espd.cli", "iterate_schedule"),
            ("tables", "espd.golden", "evaluate_table"),
            ("optimize", "espd.optimize", "search_schedules"),
            ("oracle", "espd.oracle", "oracle_report"),
            ("qkd", "espd.qkd", "QkdScenario"),
            ("figdata", "espd.golden", "figure_panels"),
            ("fixedpoints", "espd.bounds", "find_fixed_points"),
        ],
    )
    @pytest.mark.parametrize("exc,code", [(ValueError, 2), (OSError, 1), (MemoryError, 1)])
    def test_library_error_mid_command(
        self, tmp_path, capsys, monkeypatch, command, module, name, exc, code
    ):
        def fail(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(f"{module}.{name}", fail)
        out = tmp_path / "out.csv"
        assert main(self._argv(command, tmp_path, str(out))) == code
        assert capsys.readouterr().err == "error: injected\n"
        assert not out.exists()

    def test_bare_memory_error_named(self, tmp_path, capsys, monkeypatch):
        # Python's own MemoryError carries no message
        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("espd.optimize.search_schedules", fail)
        out = tmp_path / "out.csv"
        assert main(self._argv("optimize", tmp_path, str(out))) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()


# Generated flags for every subcommand but ``iterate``, whose config file is
# generated above.  Each flag is mostly an in-range value, else a hostile
# number (ints negative, 0 or huge; floats nan, infinite, subnormal, 1e308 or
# -0.0) or arbitrary text.  In-range values are capped so each run stays
# small; a huge value is drawn only where the library rejects it before any
# work, so never for ``--trials``, which has no upper bound.
_HUGE = st.sampled_from([2**63, 2**64, 10**30])
_HOSTILE_FLOAT = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, float("nan"), -float("inf")])
_SWITCH = st.none()
# an output name under the test's directory: "" is the empty path, "." the directory itself
_OUT = st.text(st.characters(blacklist_characters="/"), max_size=6).filter(lambda s: s != "..")


def _arg(good, hostile):
    # text 1 time in 20 and a hostile number 3 in 20: a command has up to 9 flags
    pick = {0: st.text(max_size=6), **dict.fromkeys([1, 2, 3], hostile.map(repr))}
    return st.integers(0, 19).flatmap(lambda i: pick.get(i, good.map(repr)))


def _int(lo, cap, huge=_HUGE):
    return _arg(st.integers(lo, cap), st.integers(-3, 0) | huge)


_PROB = _arg(st.floats(0.0, 1.0), _HOSTILE_FLOAT)
_MODEL = dict.fromkeys(["--eta0", "--d0", "--p", "--P", "--Q"], _PROB)
# per subcommand: its required flags, then its optional ones
_FLAGS = {
    "tables": ({"--table": _int(2, 7)},
               {"--variant": st.sampled_from(["exact", "approx"]) | st.text(max_size=6),
                "--out": _OUT}),
    "figdata": ({"--figure": _int(2, 5)}, {"--out-dir": _OUT}),
    # the search's size flags are always given: their defaults search for seconds
    "optimize": ({"--de-target": _PROB, "--dcr-target": _PROB,
                  "--max-levels": _int(1, 2), "--n-max": _int(1, 4)},
                 {**_MODEL, "--top": _int(0, 60), "--pareto": _SWITCH, "--out": _OUT}),
    "oracle": ({"--n": _int(1, 16), "--k": _int(1, 16)},
               {**_MODEL, "--trials": _int(1, 10**4, huge=st.nothing()), "--seed": _int(0, 99),
                "--threads": _int(1, 4)}),
    "qkd": (dict.fromkeys(["--e-th", "--e-c", "--eta", "--dcr"], _PROB),
            {"--e": _PROB, "--approx": _SWITCH}),
    "fixedpoints": ({"--n": _int(1, 16), "--k": _int(1, 16)},
                    {"--p": _PROB, "--P": _PROB, "--grid": _int(100, 10**4)}),
}


class TestGeneratedFlags:
    """No flag value ends in a traceback: exit 0, 1 or 2, with one error line at most."""

    @pytest.mark.parametrize("command", list(_FLAGS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_flags_exit_cleanly(self, tmp_path_factory, command, data):
        tmp = tmp_path_factory.getbasetemp() / "flags"
        required, optional = _FLAGS[command]
        argv = [command]
        for flag, value in data.draw(st.fixed_dictionaries(required, optional=optional)).items():
            if flag in ("--out", "--out-dir"):
                value = str(tmp / value) if value else ""
            # "--flag=value": argparse would read a bare "-inf" as an unknown option
            argv.append(flag if value is None else f"{flag}={value}")
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"ESPD_OUT_DIR": str(tmp)}), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, lines)
        if lines and lines[0].startswith("usage: "):
            assert code == 2 and f"espd {command}: error: " in lines[-1], (argv, lines)
        else:
            # exit 1 may be a verdict on stdout, a misprinted table or an oracle "no",
            # with no error line
            assert len(lines) in {0: (0,), 1: (0, 1), 2: (1,)}[code], (argv, lines)
            assert all(line.startswith("error: ") for line in lines), (argv, lines)
