import pytest

from tagselect import Algorithm
from tagselect import bench
from tagselect.bench import BenchRow, RandomInstanceSpec, SweepSpec
from tagselect.cli import main


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
        live = [r for r in rows if r.k == 2]
        assert live and not any(r.dead_end for r in live)

    def test_exact_cap_skips_exact_solvers(self):
        spec = small_spec(
            instances=RandomInstanceSpec(count=2, num_attrs=16, n_pos=12, n_neg=12),
            exact_cap=18,
        )
        rows = bench.run_sweep(spec)
        assert {r.algorithm for r in rows} == {"a-ic", "a-dc"}
        # no exact partner ran, so no ratios
        assert all(r.approx_ratio is None for r in rows)

    @staticmethod
    def _strip_timing(rows):
        return [
            (r.algorithm, r.k, r.alpha, r.beta, r.instance_id, r.rep,
             r.objective_value, r.coverage_proportion, r.rel_total,
             r.approx_ratio, r.dead_end)
            for r in rows
        ]

    def test_deterministic_up_to_timing(self):
        a = bench.run_sweep(small_spec())
        b = bench.run_sweep(small_spec())
        assert self._strip_timing(a) == self._strip_timing(b)

    def test_worker_pool_matches_serial(self):
        spec = small_spec(instances=RandomInstanceSpec(count=2, num_attrs=12, n_pos=5, n_neg=5))
        serial = bench.run_sweep(spec, jobs=1)
        parallel = bench.run_sweep(spec, jobs=2)
        assert self._strip_timing(serial) == self._strip_timing(parallel)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(repetitions=0)
        with pytest.raises(ValueError):
            small_spec(algorithms=())
        with pytest.raises(ValueError):
            small_spec(k_values=())


class TestCsv:
    def test_round_trip(self, tmp_path):
        spec = small_spec()
        rows = bench.run_sweep(spec)
        path = tmp_path / "out.csv"
        bench.write_csv(rows, spec, path)
        assert bench.read_csv(path) == rows

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
            wall_time=0.0, approx_ratio=2.5, dead_end=False,
        )
        with pytest.raises(AssertionError):
            bench.assert_bounds([row])


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

    def test_solve_infeasible_quota(self, camera_rules_file, capsys):
        rc = main([
            "solve", "--rules", str(camera_rules_file),
            "--k", "10", "--alpha", "0.5", "--beta", "0.5",
        ])
        err = capsys.readouterr().err
        assert rc != 0
        assert "short 2 positive and 2 negative" in err

    def test_solve_parse_error_has_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"attributes": ["a"]}\n{broken\n')
        rc = main(["solve", "--rules", str(bad), "--k", "1", "--alpha", "1.0",
                   "--beta", "0.0"])
        err = capsys.readouterr().err
        assert rc != 0
        assert "line 2" in err

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
