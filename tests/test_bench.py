import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagselect import Algorithm, Infeasible, InfeasiblePolarity
from tagselect import bench, cov_dc, cov_ic, datagen, lp_export, make_params, rules_io
from tagselect.bench import BenchRow, RandomInstanceSpec, SweepSpec
from tagselect.cli import main

from conftest import camera_rules_jsonl


def small_spec(**kw):
    defaults = dict(
        algorithms=(Algorithm.A_IC, Algorithm.E_IC, Algorithm.A_DC, Algorithm.E_DC),
        k_values=(2, 4),
        alpha_values=(0.5,),
        beta_values=(0.3,),
        instances=RandomInstanceSpec(count=4, num_attrs=16, n_pos=6, n_neg=6),
        repetitions=1,
        seed=7,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestRunSweep:
    def test_row_count_and_canonical_order(self):
        spec = small_spec(repetitions=2)
        rows = bench.run_sweep(spec)
        assert len(rows) == 4 * 2 * 4 * 2  # algorithms * k * instances * reps
        assert rows == sorted(rows, key=BenchRow.sort_key)

    def test_ratios_filled_for_greedy_rows(self):
        rows = bench.run_sweep(small_spec())
        greedy_ic_rows = [r for r in rows if r.algorithm == "a-ic" and not r.dead_end]
        assert greedy_ic_rows
        assert all(r.approx_ratio is not None for r in greedy_ic_rows)
        assert all(r.approx_ratio <= 2.0 for r in greedy_ic_rows if r.approx_ratio)
        exact_rows = [r for r in rows if r.algorithm == "e-ic"]
        assert all(r.approx_ratio is None for r in exact_rows)

    def test_coverage_proportion_in_unit_interval(self):
        rows = bench.run_sweep(small_spec())
        assert all(0.0 <= r.coverage_proportion <= 1.0 for r in rows)

    def test_infeasible_points_recorded_not_fatal(self):
        spec = small_spec(k_values=(2, 40))  # 40 exceeds every quota
        rows = bench.run_sweep(spec)
        dead = [r for r in rows if r.k == 40]
        assert dead and all(r.dead_end for r in dead)
        assert {r.outcome for r in dead} == {"infeasible_quota"}
        live = [r for r in rows if r.k == 2]
        assert live and not any(r.dead_end for r in live)

    def test_dead_end_rate_counts_only_greedy_dead_ends(self):
        # Unmeetable quotas (k=40, half of e-ic's rows) are not dead ends.
        rows = bench.run_sweep(small_spec(k_values=(2, 40)))
        summary = {line.split()[0]: line for line in bench.summarize(rows)}
        assert "dead_end_rate=0.0000" in summary["algorithm=e-ic"]

    @pytest.mark.parametrize("error, outcome", [
        (InfeasiblePolarity("quota"), "infeasible_quota"),
        (Infeasible("relevance"), "infeasible_relevance"),
    ])
    def test_refusal_outcomes(self, monkeypatch, error, outcome):
        def refuse(instance, params, exact_cap):
            raise error

        monkeypatch.setitem(bench.SOLVERS, Algorithm.E_IC, refuse)
        inst = bench.materialize_instances(small_spec())[0]
        row = bench._solve_point((Algorithm.E_IC, inst, 2, 0.5, 0.3, 0, 18))
        assert row.outcome == outcome and row.dead_end
        assert (row.objective_value, row.rel_total, row.approx_ratio) == (0, 0.0, None)

    def test_exact_cap_refusal_is_an_outcome(self):
        inst = bench.materialize_instances(small_spec())[0]
        row = bench._solve_point((Algorithm.E_IC, inst, 2, 0.5, 0.3, 0, 1))
        assert row.outcome == "refused"
        row = bench._solve_point((Algorithm.A_IC, inst, 2, 0.5, 0.3, 0, 1))
        assert row.outcome == "ok"

    def test_exact_cap_refuses_exact_solvers(self):
        spec = small_spec(
            instances=RandomInstanceSpec(count=2, num_attrs=16, n_pos=12, n_neg=12),
            exact_cap=18,
        )
        rows = bench.run_sweep(spec)
        assert {r.algorithm for r in rows} == {"a-ic", "e-ic", "a-dc", "e-dc"}
        exact = [r for r in rows if r.algorithm in ("e-ic", "e-dc")]
        assert {r.outcome for r in exact} == {"refused"}
        assert all(r.objective_value == 0 for r in exact)
        # no exact partner answered, so no ratios
        assert all(r.approx_ratio is None for r in rows)

    def test_coverage_proportion_is_the_selections_coverage(self, monkeypatch):
        # Every row of all six routes, greedy dead ends included, against
        # cov_ic or cov_dc of the selection its solver returned, over the
        # values that any tag covers.
        selections = {}

        def recording(solver):
            def solve(instance, params, exact_cap):
                report = solver(instance, params, exact_cap=exact_cap)
                key = (report.algorithm.value, instance.item_id, params.k, params.alpha)
                selections[key] = report.selection
                return report
            return solve

        for algorithm, solver in list(bench.SOLVERS.items()):
            monkeypatch.setitem(bench.SOLVERS, algorithm, recording(solver))
        spec = small_spec(
            algorithms=tuple(Algorithm), k_values=(2, 4, 6), alpha_values=(0.3, 0.5),
            beta_values=(0.95,), seed=5,
        )
        instances = {inst.item_id: inst for inst in bench.materialize_instances(spec)}
        rows = bench.run_sweep(spec)
        assert {r.outcome for r in rows} == {"ok", "dead_end"}
        for row in rows:
            inst = instances[row.instance_id]
            selection = selections[row.algorithm, row.instance_id, row.k, row.alpha]
            tags = [inst.tags[i] for i in selection.tag_ids]
            count = cov_ic(tags) if row.algorithm.endswith("ic") else cov_dc(tags, inst)
            covered = set().union(*(t.coverage for t in inst.tags))
            assert row.coverage_proportion == count / len(covered)

    @staticmethod
    def _strip_timing(rows):
        return [
            (r.algorithm, r.k, r.alpha, r.beta, r.instance_id, r.rep,
             r.objective_value, r.coverage_proportion, r.rel_total,
             r.approx_ratio, r.outcome)
            for r in rows
        ]

    def test_deterministic_up_to_timing(self):
        a = bench.run_sweep(small_spec())
        b = bench.run_sweep(small_spec())
        assert self._strip_timing(a) == self._strip_timing(b)

    def test_worker_pool_matches_serial(self, monkeypatch):
        # Two CPUs, so that a one-CPU machine starts a real pool too.
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        spec = small_spec(
            algorithms=tuple(Algorithm),
            instances=RandomInstanceSpec(count=2, num_attrs=12, n_pos=5, n_neg=5),
        )
        serial = self._strip_timing(bench.run_sweep(spec, jobs=1))
        assert self._strip_timing(bench.run_sweep(spec, jobs=2)) == serial

        # Instances already solved here carry their solve inputs, built
        # once per instance, into the workers' pickles.
        warm = small_spec(algorithms=tuple(Algorithm), instances=bench.materialize_instances(spec))
        assert self._strip_timing(bench.run_sweep(warm, jobs=1)) == serial
        for inst in warm.instances:
            assert {"rel_benchmark", "dc_graph", "side_masks", "search_order"} <= vars(inst).keys()
        assert self._strip_timing(bench.run_sweep(warm, jobs=2)) == serial

    def test_pool_sized_by_points_and_cpus(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
        spec = small_spec()  # 16 points
        serial = self._strip_timing(bench.run_sweep(spec))
        assert self._strip_timing(bench.run_sweep(spec, jobs=10**6)) == serial
        assert self._strip_timing(bench.run_sweep(spec, jobs=3)) == serial

        def points(count):
            instances = RandomInstanceSpec(count=count, num_attrs=16, n_pos=6, n_neg=6)
            return small_spec(algorithms=(Algorithm.A_IC,), k_values=(2,), instances=instances)

        bench.run_sweep(points(3), jobs=10**6)
        assert sizes == [4, 3, 3]
        # One point, or a CPU count the system cannot tell, runs in-process.
        bench.run_sweep(points(1), jobs=10**6)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
        assert self._strip_timing(bench.run_sweep(spec, jobs=10**6)) == serial
        assert sizes == [4, 3, 3]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(repetitions=0)
        with pytest.raises(ValueError):
            small_spec(algorithms=())
        with pytest.raises(ValueError):
            small_spec(k_values=())
        with pytest.raises(ValueError, match="exact cap must be >= 0, got -1"):
            small_spec(exact_cap=-1)
        small_spec(exact_cap=0)


class TestCsv:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        rows = bench.run_sweep(spec)
        path = tmp_path / "out.csv"
        bench.write_csv(rows, spec, path)
        assert bench.read_csv(path) == rows

    def test_columns_are_the_row_fields(self, tmp_path):
        spec = small_spec(k_values=(2, 40))
        rows = bench.run_sweep(spec)
        path = tmp_path / "out.csv"
        bench.write_csv(rows, spec, path)
        header = next(l for l in path.read_text().splitlines() if not l.startswith("#"))
        assert header.split(",") == list(bench.CSV_FIELDS)
        assert bench.CSV_FIELDS[-1] == "outcome"
        assert {r.outcome for r in bench.read_csv(path)} == {"ok", "infeasible_quota"}

    def test_read_csv_refuses_old_columns(self, tmp_path):
        old = tmp_path / "old.csv"
        old.write_text(",".join(bench.CSV_FIELDS[:-1] + ("dead_end",)) + "\n")
        with pytest.raises(ValueError, match="expected .*outcome"):
            bench.read_csv(old)

    def test_summary_dead_end_rate(self):
        def row(outcome):
            return BenchRow(
                algorithm="a-dc", k=2, alpha=0.5, beta=0.5, instance_id="x", rep=0,
                objective_value=0, coverage_proportion=0.0, rel_total=0.0,
                wall_time=0.0, approx_ratio=None, outcome=outcome,
            )

        (line,) = bench.summarize([row(o) for o in bench.OUTCOMES])
        assert "dead_end_rate=0.2000" in line
        # With no answered row there is no wall time to aggregate.
        (line,) = bench.summarize([row(o) for o in bench.OUTCOMES if o != "ok"])
        assert "mean_wall=nan p95_wall=nan dead_end_rate=0.2500" in line

    def test_comment_lines_carry_config_and_aggregates(self, tmp_path):
        spec = small_spec()
        rows = bench.run_sweep(spec)
        path = tmp_path / "out.csv"
        bench.write_csv(rows, spec, path)
        text = path.read_text()
        comments = [l for l in text.splitlines() if l.startswith("#")]
        assert any("config:" in l for l in comments)
        assert any("exact_cap" in l for l in comments)
        assert any("algorithm=a-ic" in l and "mean_wall=" in l for l in comments)
        assert any("p95_wall=" in l for l in comments)

    def test_assert_bounds_passes_on_clean_rows(self):
        rows = bench.run_sweep(small_spec())
        bench.assert_bounds(rows)

    def test_assert_bounds_raises_on_violation(self):
        row = BenchRow(
            algorithm="a-ic", k=2, alpha=0.5, beta=0.5, instance_id="x", rep=0,
            objective_value=1, coverage_proportion=0.1, rel_total=0.5,
            wall_time=0.0, approx_ratio=2.5, outcome="ok",
        )
        with pytest.raises(AssertionError):
            bench.assert_bounds([row])


# What a mutated rules-file field may become: nulls, bools, NaN, empty
# lists, out-of-range numbers, attribute names the header lacks and a
# repeated one.
FUZZ_VALUES = (
    None, True, False, math.nan, [], "", -1, 2.5,
    "no-such-value", ["no-such-value"], ["Color=Red", "Color=Red"],
)


@st.composite
def fuzzed_rules_files(draw):
    """The camera rules file with up to three fields mutated or added, and
    maybe one line cut short."""
    objs = [json.loads(line) for line in camera_rules_jsonl().splitlines()]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        obj = draw(st.sampled_from(objs))
        obj[draw(st.sampled_from(sorted(obj) + ["unknown"]))] = draw(st.sampled_from(FUZZ_VALUES))
    lines = [json.dumps(obj) for obj in objs]
    if draw(st.sampled_from([False, False, False, True])):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    return "\n".join(lines) + "\n"


# Numbers that argparse accepts, in range or not: NaN and the infinities too.
fuzz_floats = st.floats(0.0, 1.0) | st.floats()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    fuzzed_rules_files(),
    st.integers(-3, 8),
    fuzz_floats,
    fuzz_floats,
    st.sampled_from([a.value for a in Algorithm]),
)
def test_solve_never_ends_in_a_traceback(fuzz_dir, text, k, alpha, beta, algorithm):
    # Every run ends in exit 0, 1 or 2, an exit 2 with one error line; no
    # exception escapes main.
    path = fuzz_dir / "fuzzed.rules.jsonl"
    path.write_text(text)
    argv = ["solve", "--rules", str(path), f"--k={k}", f"--alpha={alpha!r}",
            f"--beta={beta!r}", "--algorithm", algorithm]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestCli:
    def test_solve_greedy_ic(self, camera_rules_file, capsys):
        rc = main([
            "solve", "--rules", str(camera_rules_file),
            "--k", "2", "--alpha", "0.5", "--beta", "0.5", "--algorithm", "a-ic",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stylish (+)" in out
        assert "blurry pictures (-)" in out
        assert "cov_ic = 7" in out

    def test_solve_greedy_dc(self, camera_rules_file, capsys):
        rc = main([
            "solve", "--rules", str(camera_rules_file),
            "--k", "2", "--alpha", "0.5", "--beta", "0.5", "--algorithm", "a-dc",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stylish (+)" in out
        assert "poor battery life (-)" in out
        assert "theta_dc = 1" in out

    def test_solve_greedy_ignores_exact_cap(self, camera_rules_file, capsys):
        rc = main([
            "solve", "--rules", str(camera_rules_file),
            "--k", "2", "--alpha", "0.5", "--beta", "0.5", "--algorithm", "a-dc",
            "--exact-cap", "1",
        ])
        assert rc == 0
        assert "theta_dc = 1" in capsys.readouterr().out

    def test_solve_exact_over_cap_is_refused(self, camera_rules_file, capsys):
        rc = main([
            "solve", "--rules", str(camera_rules_file),
            "--k", "2", "--alpha", "0.5", "--beta", "0.5", "--algorithm", "e-ic",
            "--exact-cap", "1",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: exhaustive solving refused for n=6 tags")

    def test_solve_infeasible_quota(self, camera_rules_file, capsys):
        rc = main([
            "solve", "--rules", str(camera_rules_file),
            "--k", "10", "--alpha", "0.5", "--beta", "0.5",
        ])
        err = capsys.readouterr().err
        assert rc != 0
        assert "short 2 positive and 2 negative" in err

    def test_solve_dead_end_exits_one(self, tmp_path, capsys):
        # At beta 1 no first pair of a-dc passes the relevance filter.
        rules = datagen.random_rules(np.random.default_rng(0), 12, 4, 4)
        path = tmp_path / "dead_end.rules.jsonl"
        attrs = tuple(f"a{i}" for i in range(12))
        rules_io.dump(rules_io.RulesDocument("item", attrs, tuple(rules)), path)
        rc = main([
            "solve", "--rules", str(path),
            "--k", "3", "--alpha", "0.25", "--beta", "1.0", "--algorithm", "a-dc",
        ])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "theta_dc = 4" in out.splitlines()
        assert "rel = 0" in out.splitlines()
        assert err.splitlines() == ["dead end: relevance filter emptied the candidate pool"]

    def test_solve_parse_error_has_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"attributes": ["a"]}\n{broken\n')
        rc = main(["solve", "--rules", str(bad), "--k", "1", "--alpha", "1.0",
                   "--beta", "0.0"])
        err = capsys.readouterr().err
        assert rc != 0
        assert "line 2" in err

    def test_solve_malformed_rule_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"attributes": ["a"]}\n'
            '{"tag": "x", "sentiment": "+", "p": 0.5, "attrs": [["a"]]}\n'
        )
        rc = main(["solve", "--rules", str(bad), "--k", "1", "--alpha", "1.0",
                   "--beta", "0.0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "line 2" in err

    @staticmethod
    def assert_usage_error(capsys, argv, fragment):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and fragment in err

    def test_solve_zero_budget_is_usage_error(self, camera_rules_file, capsys):
        self.assert_usage_error(capsys, [
            "solve", "--rules", str(camera_rules_file),
            "--k", "0", "--alpha", "0.5", "--beta", "0.5",
        ], "budget k must be >= 1")

    def test_solve_nan_alpha_is_usage_error(self, camera_rules_file, capsys):
        self.assert_usage_error(capsys, [
            "solve", "--rules", str(camera_rules_file),
            "--k", "2", "--alpha", "nan", "--beta", "0.5",
        ], "alpha must be in [0, 1]")

    def test_solve_rules_directory_is_usage_error(self, tmp_path, capsys):
        self.assert_usage_error(capsys, [
            "solve", "--rules", str(tmp_path),
            "--k", "2", "--alpha", "0.5", "--beta", "0.5",
        ], "Is a directory")

    def test_bench_jobs_below_one_is_usage_error(self, tmp_path, capsys):
        for jobs in ("0", "-3"):
            out = tmp_path / f"jobs{jobs}.csv"
            self.assert_usage_error(capsys, [
                "bench", "--instances", "1", "--algorithms", "a-ic", "--k-values", "2",
                "--jobs", jobs, "--out", str(out),
            ], f"jobs must be >= 1, got {jobs}")
            assert not out.exists()

    def test_bench_instances_below_one_is_usage_error(self, tmp_path, capsys):
        for count in ("0", "-3"):
            out = tmp_path / f"instances{count}.csv"
            self.assert_usage_error(capsys, [
                "bench", "--instances", count, "--algorithms", "a-ic", "--k-values", "2",
                "--out", str(out),
            ], f"instance count must be >= 1, got {count}")
            assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, fragment",
        [
            ("--pos", "-1", "tag counts must be >= 0, got -1 positive and 8 negative"),
            ("--neg", "-3", "tag counts must be >= 0, got 8 positive and -3 negative"),
            ("--attrs", "0", "attribute count must be >= 1, got 0"),
            ("--attrs", "-2", "attribute count must be >= 1, got -2"),
        ],
    )
    def test_bench_bad_instance_size_is_usage_error(self, tmp_path, capsys, flag, value, fragment):
        out = tmp_path / "sizes.csv"
        self.assert_usage_error(capsys, [
            "bench", "--instances", "1", "--algorithms", "a-ic", "--k-values", "2",
            flag, value, "--out", str(out),
        ], fragment)
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["e-ic", "a-ic"])
    def test_solve_negative_exact_cap_is_usage_error(self, camera_rules_file, capsys, algorithm):
        self.assert_usage_error(capsys, [
            "solve", "--rules", str(camera_rules_file),
            "--k", "2", "--alpha", "0.5", "--beta", "0.5", "--algorithm", algorithm,
            "--exact-cap", "-1",
        ], "exact cap must be >= 0, got -1")

    def test_bench_negative_exact_cap_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cap.csv"
        self.assert_usage_error(capsys, [
            "bench", "--instances", "1", "--algorithms", "e-ic,a-ic", "--k-values", "2",
            "--exact-cap", "-1", "--out", str(out),
        ], "exact cap must be >= 0, got -1")
        assert not out.exists()

    def test_gen_negative_csv_rows_is_usage_error(self, tmp_path, capsys):
        small = ["gen", "--items", "50", "--attrs", "10", "--pos-tags", "3",
                 "--neg-tags", "3", "--csv"]
        for rows in ("-1", "-60"):
            self.assert_usage_error(capsys, small + [
                "--csv-rows", rows, "--out", str(tmp_path / f"rows{rows}"),
            ], f"csv rows must be >= 0, got {rows}")
        assert not list(tmp_path.iterdir())
        # Zero rows is valid: the header alone.
        assert main(small + ["--csv-rows", "0", "--out", str(tmp_path / "zero")]) == 0
        assert len((tmp_path / "zero.csv").read_text().splitlines()) == 1

    def test_gen_without_tags_is_usage_error(self, tmp_path, capsys):
        self.assert_usage_error(capsys, [
            "gen", "--items", "50", "--attrs", "10", "--pos-tags", "0",
            "--neg-tags", "0", "--out", str(tmp_path / "empty"),
        ], "at least one tag required")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("message, fragment", [
        ("Unable to allocate 182. TiB for an array with shape (1000000000000, 200) "
         "and data type uint8", "Unable to allocate 182. TiB"),
        ("", "out of memory"),
    ])
    def test_gen_too_large_to_allocate_is_usage_error(
        self, tmp_path, capsys, monkeypatch, message, fragment
    ):
        # Stands in for numpy's allocation error, so nothing is allocated.
        def refuse(config):
            raise MemoryError(message)

        monkeypatch.setattr(datagen, "gen_matrix", refuse)
        self.assert_usage_error(capsys, [
            "gen", "--items", "1000000000000", "--out", str(tmp_path / "huge"),
        ], fragment)
        assert not list(tmp_path.iterdir())

    def test_bench_without_tags_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        self.assert_usage_error(capsys, [
            "bench", "--instances", "1", "--attrs", "10", "--pos", "0", "--neg", "0",
            "--algorithms", "a-ic", "--k-values", "1", "--out", str(out),
        ], "at least one tag required")
        assert not out.exists()

    def test_bench_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--instances", "2", "--attrs", "12", "--pos", "5", "--neg", "5",
            "--algorithms", "a-ic,e-ic", "--k-values", "2", "--alpha-values", "0.5",
            "--beta-values", "0.3", "--seed", "3", "--assert-bounds",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert len(bench.read_csv(out)) == 4

    def test_bench_out_in_a_new_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "bench.csv"
        assert main([
            "bench", "--instances", "1", "--algorithms", "a-ic", "--k-values", "2",
            "--out", str(out),
        ]) == 0
        assert len(bench.read_csv(out)) == 1

    def test_bench_out_under_a_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def never(spec, jobs):
            raise AssertionError("the sweep ran before its output was refused")

        monkeypatch.setattr(bench, "run_sweep", never)
        parent = tmp_path / "file"
        parent.write_text("")
        self.assert_usage_error(capsys, [
            "bench", "--instances", "1", "--algorithms", "a-ic", "--k-values", "2",
            "--out", str(parent / "bench.csv"),
        ], str(parent))

    def test_bench_exact_cap_defaults_to_sweep_spec(self, tmp_path, capsys):
        out = tmp_path / "cap.csv"
        assert main([
            "bench", "--instances", "1", "--algorithms", "a-ic", "--k-values", "2",
            "--out", str(out),
        ]) == 0
        assert "# exact_cap: 18" in out.read_text().splitlines()

    def test_gen_deterministic_files(self, tmp_path, capsys):
        args = ["gen", "--items", "500", "--attrs", "16", "--pos-tags", "4",
                "--neg-tags", "4", "--seed", "7"]
        rc1 = main(args + ["--out", str(tmp_path / "a")])
        rc2 = main(args + ["--out", str(tmp_path / "b")])
        out = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert "seed = 7" in out
        assert (tmp_path / "a.matrix").read_bytes() == (tmp_path / "b.matrix").read_bytes()
        assert (tmp_path / "a.rules.jsonl").read_text() == (tmp_path / "b.rules.jsonl").read_text()

    def test_gen_all_one_probs_gives_p_one_rules(self, tmp_path, capsys):
        rc = main(["gen", "--items", "200", "--attrs", "16", "--pos-tags", "4",
                   "--neg-tags", "4", "--probs", "1,1,1,1", "--seed", "1",
                   "--out", str(tmp_path / "ones")])
        assert rc == 0
        from tagselect import rules_io
        doc = rules_io.load(tmp_path / "ones.rules.jsonl")
        assert all(r.probability == 1.0 for r in doc.rules)

    def test_gen_default_flags_shape(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "full")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "100000 x 200" in out
        from tagselect import datagen, rules_io
        assert len(rules_io.load(tmp_path / "full.rules.jsonl").rules) == 100
        matrix = datagen.load_matrix(tmp_path / "full.matrix")
        assert matrix.data.shape == (100_000, 200)

    def test_gen_then_bench_on_rules_file(self, tmp_path, capsys):
        rc = main(["gen", "--items", "300", "--attrs", "20", "--pos-tags", "5",
                   "--neg-tags", "5", "--seed", "11", "--out", str(tmp_path / "s")])
        assert rc == 0
        out_csv = tmp_path / "sweep.csv"
        rc = main(["bench", "--rules", str(tmp_path / "s.rules.jsonl"),
                   "--algorithms", "a-ic,e-ic,a-dc,e-dc", "--k-values", "2,4",
                   "--alpha-values", "0.5", "--beta-values", "0.5",
                   "--out", str(out_csv)])
        assert rc == 0
        rows = bench.read_csv(out_csv)
        assert len(rows) == 8
        assert not any(r.dead_end for r in rows)

    def test_export_lp(self, tmp_path, camera_rules_file, capsys):
        out = tmp_path / "model.lp"
        rc = main(["export-lp", "--rules", str(camera_rules_file), "--k", "2",
                   "--alpha", "0.5", "--beta", "0.5", "--model", "ic",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("\\")
        # Both models write exactly the exporter's text.
        instance = rules_io.load(camera_rules_file).build()
        params = make_params(2, 0.5, 0.5, instance)
        for model, export in (("ic", lp_export.lp_ic), ("dc", lp_export.lp_dc)):
            rc = main(["export-lp", "--rules", str(camera_rules_file), "--k", "2",
                       "--alpha", "0.5", "--beta", "0.5", "--model", model,
                       "--out", str(out)])
            assert rc == 0
            assert out.read_text() == export(instance, params)
