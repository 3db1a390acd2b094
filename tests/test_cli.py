"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, format_table, main


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("datasets", "compress", "detect", "query"):
            args = parser.parse_args(
                [command] + (["taxi"] if command in ("compress", "detect", "query") else [])
            )
            assert args.command == command

    def test_every_workers_flag_defaults_to_serial(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "cat"]).workers == 1
        assert parser.parse_args(["query", "taxi"]).workers == 1
        assert parser.parse_args(["compress", "taxi"]).workers == 1
        assert parser.parse_args(["serve", "cat", "--workers", "2"]).workers == 2

    def test_format_table_aligns_columns(self):
        text = format_table(("a", "bb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}


class TestDatasetsCommand:
    def test_list_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("tpch_lineitem", "ldbc_message", "dmv", "taxi"):
            assert name in out

    def test_export_to_stdout(self, capsys):
        assert main(["datasets", "taxi", "--rows", "50", "--limit", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("pickup,")
        assert len(out) == 6  # header + 5 rows

    def test_export_to_file(self, tmp_path, capsys):
        path = tmp_path / "dmv.csv"
        assert main(["datasets", "dmv", "--rows", "100", "--output", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 101
        assert "zip_code" in lines[0]

    def test_unknown_dataset(self, capsys):
        assert main(["datasets", "imdb"]) == 1
        assert "error" in capsys.readouterr().err


class TestCompressCommand:
    def test_baseline_plan(self, capsys):
        assert main(["compress", "tpch_lineitem", "--rows", "5000", "--plan", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "l_shipdate" in out
        assert "total:" in out

    def test_explicit_diff_encoding(self, capsys):
        assert main([
            "compress", "tpch_lineitem", "--rows", "5000",
            "--diff-encode", "l_receiptdate:l_shipdate",
        ]) == 0
        out = capsys.readouterr().out
        assert "non_hierarchical (l_shipdate)" in out

    def test_explicit_hierarchical_encoding(self, capsys):
        assert main([
            "compress", "dmv", "--rows", "5000",
            "--hierarchical", "zip_code:city",
        ]) == 0
        out = capsys.readouterr().out
        assert "hierarchical (city)" in out

    def test_mined_multi_reference(self, capsys):
        assert main([
            "compress", "taxi", "--rows", "5000",
            "--mine-rules-for", "total_amount",
        ]) == 0
        out = capsys.readouterr().out
        assert "mined multi-reference configuration" in out
        assert "multi_reference" in out

    def test_auto_plan(self, capsys):
        assert main(["compress", "tpch_lineitem", "--rows", "5000"]) == 0
        out = capsys.readouterr().out
        assert "saving" in out

    def test_bad_pair_spec(self, capsys):
        assert main([
            "compress", "tpch_lineitem", "--rows", "2000",
            "--diff-encode", "no-colon-here",
        ]) == 1
        assert "TARGET:REFERENCE" in capsys.readouterr().err

    def test_unknown_reference_column(self, capsys):
        assert main([
            "compress", "tpch_lineitem", "--rows", "2000",
            "--diff-encode", "l_receiptdate:nope",
        ]) == 1
        assert "error" in capsys.readouterr().err


class TestDetectCommand:
    def test_detect_taxi(self, capsys):
        assert main(["detect", "taxi", "--rows", "5000", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "dropoff" in out

    def test_detect_nothing_found(self, capsys):
        assert main(["detect", "taxi", "--rows", "500", "--min-saving-rate", "0.99"]) == 0
        assert "no exploitable correlations" in capsys.readouterr().out


class TestQueryCommand:
    def test_between_reports_count_and_metrics(self, capsys):
        assert main([
            "query", "tpch_lineitem", "--rows", "5000", "--block-size", "500",
            "--plan", "baseline", "--between", "l_shipdate:9100:9130",
        ]) == 0
        out = capsys.readouterr().out
        assert "9100 <= l_shipdate <= 9130" in out
        assert "count:" in out
        assert "blocks pruned" in out
        assert "rows decoded" in out

    def test_conjunction_of_terms(self, capsys):
        assert main([
            "query", "taxi", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline",
            "--between", "fare_amount:0:5000", "--equals", "airport_fee:0",
        ]) == 0
        out = capsys.readouterr().out
        assert "AND" in out

    def test_in_predicate(self, capsys):
        assert main([
            "query", "taxi", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline", "--in", "airport_fee:0,125",
        ]) == 0
        assert "IN" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "tpch_lineitem", "--between", "l_shipdate:9100:9130", "--no-pruning"],
            ["query", "tpch_lineitem", "--between", "l_shipdate:9100:9130", "--no-kernels"],
            ["serve", ".", "--no-kernels"],
        ],
        ids=["query --no-pruning", "query --no-kernels", "serve --no-kernels"],
    )
    def test_off_switches_are_gone(self, argv, capsys):
        # Zone maps and kernels always run; the decode baseline is an engine
        # with an empty KernelRegistry, not a flag.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err

    def test_missing_predicate_is_an_error(self, capsys):
        assert main(["query", "taxi", "--rows", "1000"]) == 1
        assert "no predicate" in capsys.readouterr().err

    def test_malformed_between(self, capsys):
        assert main([
            "query", "taxi", "--rows", "1000", "--between", "fare_amount:1",
        ]) == 1
        assert "COLUMN:LOW:HIGH" in capsys.readouterr().err

    def test_aggregates_without_predicate_cover_the_relation(self, capsys):
        assert main([
            "query", "taxi", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline", "--agg", "n:count", "--agg", "hi:max:fare_amount",
        ]) == 0
        out = capsys.readouterr().out
        assert "n" in out and "hi" in out
        assert "2000" in out  # count(*) over the whole relation
        covered_row = next(line for line in out.splitlines() if "blocks fully covered" in line)
        assert covered_row.split()[-1] == "4"

    def test_group_by_prints_one_row_per_group(self, capsys):
        assert main([
            "query", "taxi", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline", "--between", "fare_amount:0:5000",
            "--agg", "n:count", "--agg", "total:sum:tip_amount",
            "--group-by", "passenger_count", "--limit", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "passenger_count" in out
        assert "total" in out

    def test_explain_renders_plan_and_decisions(self, capsys):
        assert main([
            "query", "tpch_lineitem", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline", "--between", "l_shipdate:9100:9130",
            "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "== logical plan ==" in out
        assert "Filter [9100 <= l_shipdate <= 9130]" in out
        assert "== physical scan ==" in out
        assert "count:" in out  # the query still executes after explaining

    def test_select_with_limit_prints_rows(self, capsys):
        assert main([
            "query", "tpch_lineitem", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline", "--between", "l_shipdate:9100:9400",
            "--select", "l_shipdate,l_receiptdate", "--limit", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "l_receiptdate" in out
        assert out.count("\n91") <= 3  # at most the two limited rows (+ header)

    def test_malformed_aggregate_specs(self, capsys):
        assert main(["query", "taxi", "--rows", "1000", "--agg", "n:median"]) == 1
        assert "unknown aggregate function" in capsys.readouterr().err
        assert main(["query", "taxi", "--rows", "1000", "--agg", "n:sum"]) == 1
        assert "needs an input column" in capsys.readouterr().err
        assert main(["query", "taxi", "--rows", "1000", "--agg", "n:count:x"]) == 1
        assert "count takes no input column" in capsys.readouterr().err

    def test_group_by_without_agg_is_an_error(self, capsys):
        assert main([
            "query", "taxi", "--rows", "1000", "--group-by", "passenger_count",
        ]) == 1
        assert "group_by needs at least one aggregate" in capsys.readouterr().err

    def test_select_combined_with_agg_is_an_error(self, capsys):
        assert main([
            "query", "taxi", "--rows", "1000", "--agg", "n:count",
            "--select", "fare_amount",
        ]) == 1
        assert "select cannot be combined with group_by/aggregates" in capsys.readouterr().err

    def test_duplicate_agg_names_are_an_error(self, capsys):
        assert main([
            "query", "taxi", "--rows", "1000",
            "--agg", "n:count", "--agg", "n:sum:fare_amount",
        ]) == 1
        assert "duplicate aggregate output name" in capsys.readouterr().err

    def test_avg_aggregate(self, capsys):
        assert main([
            "query", "taxi", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline", "--agg", "mean:avg:fare_amount",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean" in out


class TestOutOfCoreCli:
    def test_compress_output_then_query_corra_file(self, tmp_path, capsys):
        path = tmp_path / "lineitem.corra"
        assert main([
            "compress", "tpch_lineitem", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline", "--output", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote 4 block(s)" in out
        assert path.is_file()

        assert main([
            "query", str(path), "--between", "l_shipdate:9100:9130",
            "--cache-bytes", "100000",
        ]) == 0
        out = capsys.readouterr().out
        assert "count:" in out
        assert "blocks read" in out
        assert "cache hits" in out

    def test_catalog_round_trip(self, tmp_path, capsys):
        catalog_dir = str(tmp_path / "catalog")
        assert main([
            "compress", "taxi", "--rows", "2000", "--block-size", "500",
            "--plan", "baseline", "--catalog", catalog_dir,
        ]) == 0
        assert "catalogued 'taxi'" in capsys.readouterr().out
        assert main([
            "query", "taxi", "--catalog", catalog_dir, "--agg", "n:count",
        ]) == 0
        out = capsys.readouterr().out
        assert "2000" in out
        assert "io metric" in out

    def test_missing_corra_file_is_an_error(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope.corra"), "--agg", "n:count"]) == 1
        assert "cannot open table" in capsys.readouterr().err

    def test_unknown_catalog_table_is_an_error(self, tmp_path, capsys):
        catalog_dir = tmp_path / "catalog"
        assert main([
            "query", "ghost", "--catalog", str(catalog_dir), "--agg", "n:count",
        ]) == 1
        # A mistyped catalog path is diagnosed, not silently created.
        assert "does not exist" in capsys.readouterr().err
        assert not catalog_dir.exists()
        catalog_dir.mkdir()
        assert main([
            "query", "ghost", "--catalog", str(catalog_dir), "--agg", "n:count",
        ]) == 1
        assert "no table named" in capsys.readouterr().err

    def test_generation_flags_rejected_for_disk_tables(self, tmp_path, capsys):
        path = tmp_path / "t.corra"
        assert main([
            "compress", "taxi", "--rows", "1000", "--block-size", "500",
            "--plan", "baseline", "--output", str(path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", str(path), "--rows", "100", "--agg", "n:count",
        ]) == 1
        assert "--rows" in capsys.readouterr().err
        assert main(["query", str(path), "--agg", "n:count"]) == 0


class TestExperimentsCommand:
    def test_single_experiment(self, capsys):
        # The paper's tables are tier-1 asserts (tests/test_paper_results.py)
        # and timings live in bench/run.py; there is no experiments command.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "table1", "--rows", "20000"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'experiments'" in capsys.readouterr().err


class TestServeCommand:
    def test_bad_workers_exits_before_binding(self, tmp_path, capsys, monkeypatch):
        def bind(*args, **kwargs):
            raise AssertionError("serve reached the socket with an invalid config")

        monkeypatch.setattr("repro.server.CorraHttpServer", bind)
        assert main(["serve", str(tmp_path), "--workers", "-1"]) == 1
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--max-concurrency", "0", "max_concurrency"),
            ("--timeout", "0", "timeout_seconds"),
            ("--result-cache-entries", "-3", "result_cache_entries"),
        ],
    )
    def test_bad_service_limits_exit_before_binding(
        self, tmp_path, capsys, monkeypatch, flag, value, field
    ):
        def bind(*args, **kwargs):
            raise AssertionError("serve reached the socket with an invalid config")

        monkeypatch.setattr("repro.server.CorraHttpServer", bind)
        assert main(["serve", str(tmp_path), flag, value]) == 1
        assert field in capsys.readouterr().err
