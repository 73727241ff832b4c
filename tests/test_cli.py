"""End-to-end checks of the command-line interface."""

import numpy as np
import pytest

from adft1024 import analysis, cli
from adft1024.cli import main
from adft1024.factors import build_w
from adft1024.radix32 import SIZE
from adft1024.reports import (read_json, read_matrix_csv, read_table_csv,
                              write_dense_matrix_csv, write_json, write_table_csv)


def run(*argv):
    return main(list(argv))


def test_gen_matrix_factors_emits_eight_files(tmp_path):
    assert run("--out-dir", str(tmp_path), "gen-matrix", "--variant", "alg1",
               "--what", "factors") == 0
    files = sorted(p.name for p in tmp_path.glob("W*.csv"))
    assert files == [f"W{k}.csv" for k in range(8)]
    w0 = read_matrix_csv(tmp_path / "W0.csv", size=32)
    assert np.count_nonzero(w0) == 62  # 30 paired rows + 2 passthroughs


def test_gen_matrix_dense_exact_unitary_when_reread(tmp_path):
    assert run("--out-dir", str(tmp_path), "gen-matrix", "--variant", "exact",
               "--what", "dense") == 0
    m = read_matrix_csv(tmp_path / "dense_exact.csv", size=SIZE)
    gram = m @ m.conj().T
    assert np.abs(gram - np.eye(SIZE)).max() < 1e-9


def test_gen_matrix_rejects_factors_for_exact(tmp_path):
    assert run("--out-dir", str(tmp_path), "gen-matrix", "--variant", "exact",
               "--what", "factors") == 2


def test_invalid_variant_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("--out-dir", str(tmp_path), "gen-matrix", "--variant", "alg9")
    assert exc.value.code == 2


def test_verify_passes_on_fresh_build(capsys):
    assert run("verify") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS kernel-additions" in out


@pytest.mark.parametrize("label", [f"W{k}" for k in range(8)])
def test_verify_detects_corrupted_stage(capsys, label):
    assert run("verify", "--corrupt-factor", label) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_fails_on_a_wrong_oracle(capsys, monkeypatch):
    dft_direct = cli.dft_direct
    monkeypatch.setattr(cli, "dft_direct", lambda x: dft_direct(x) * (1 + 1e-8))
    assert run("verify") == 1
    failed = [line.split()[1].rstrip(":") for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["fft32-vs-direct", "fft1024-vs-direct", "exact-pipeline-vs-direct"]


def test_complexity_reports(tmp_path):
    assert run("--out-dir", str(tmp_path), "complexity", "--model", "paper") == 0
    sequential = read_json(tmp_path / "complexity_sequential.json")
    by_variant = {entry["variant"]: entry for entry in sequential}
    assert (by_variant["alg1"]["real_mults"], by_variant["alg1"]["real_adds"]) == (2883, 25155)
    assert (by_variant["alg2"]["real_mults"], by_variant["alg2"]["real_adds"]) == (5699, 27075)
    circuits = read_json(tmp_path / "complexity_circuit.json")
    by_variant = {entry["variant"]: entry for entry in circuits}
    assert by_variant["alg1"]["multiplier_circuits"] == 96
    assert by_variant["exact"]["adder_circuits"] == 956
    assert by_variant["exact"]["matches_paper_table"] is False


def test_snr_output_is_deterministic(tmp_path):
    args = ("snr", "--variant", "alg1", "--replicates", "400", "--seed", "7",
            "--bins", "0,64,128")
    assert run("--out-dir", str(tmp_path / "a"), *args) == 0
    assert run("--out-dir", str(tmp_path / "b"), *args) == 0
    first = (tmp_path / "a" / "snr_alg1.csv").read_bytes()
    second = (tmp_path / "b" / "snr_alg1.csv").read_bytes()
    assert first == second
    table = read_table_csv(tmp_path / "a" / "snr_alg1.csv")
    assert list(table["bin"]) == [0, 64, 128]


def test_snr_rejects_out_of_range_bins(tmp_path):
    assert run("--out-dir", str(tmp_path), "snr", "--variant", "alg1",
               "--replicates", "100", "--bins", "0,5000") == 2


@pytest.mark.parametrize("argv, expect", [
    (("filterbank", "--variant", "alg1", "--grid-size", "1"), ""),
    (("filterbank", "--variant", "alg1", "--grid-size", "16"), "grid size 16 divides 1024"),
    (("snr", "--variant", "alg1", "--replicates", "1"), ""),
    (("snr", "--variant", "alg1", "--replicates", "100", "--seed", "-1"), ""),
    (("snr", "--variant", "alg1", "--replicates", "100", "--noise-var", "0"), ""),
    (("snr", "--variant", "alg1", "--replicates", "100", "--noise-var", "nan"), ""),
    (("snr", "--variant", "alg1", "--replicates", "100", "--noise-var", "inf"), ""),
    (("snr", "--variant", "alg1", "--replicates", "50", "--bins", "0,5",
      "--noise-var", "1e308"), "noise variance 1e+308"),
    (("snr", "--variant", "alg1", "--replicates", "50", "--bins", "0,5",
      "--noise-var", "1e-320"), "noise variance 1e-320"),
    (("beams", "--variant", "alg1", "--bins", "3", "--angles", "0"), ""),
    (("beams", "--variant", "alg1", "--bins", "3", "--angles", "-1"), "angle count"),
    (("beams", "--variant", "alg1", "--bins", "3,1024"), "bins must lie in 0..1023"),
    (("--out-dir", "{file}/sub", "complexity"), "Not a directory"),
    (("gen-matrix", "--variant", "exact", "--what", "factors"),
     "error: the exact variant has no sparse factors\n"),
    (("snr", "--variant", "alg1", "--replicates", "0"), ""),
], ids=["grid-size-1", "grid-size-16", "replicates-1", "seed-negative", "noise-var-0",
        "noise-var-nan", "noise-var-inf", "noise-var-1e308", "noise-var-1e-320", "angles-0",
        "angles-negative", "bin-1024", "out-dir-under-a-file", "exact-factors", "replicates-0"])
def test_bad_values_exit_2_with_one_line(tmp_path, capsys, argv, expect):
    file = tmp_path / "file"   # a regular file, for an --out-dir beneath it
    file.touch()
    argv = [a.format(file=file) for a in argv]
    assert run("--out-dir", str(tmp_path), *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert expect in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_allocation_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # Stands in for a grid too large to allocate, without allocating it.
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")
    monkeypatch.setattr(analysis, "filterbank_error", refuse)
    assert run("--out-dir", str(tmp_path), "filterbank", "--variant", "alg1",
               "--grid-size", "100000000000") == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 745. GiB for an array\n"
    assert list(tmp_path.iterdir()) == []


def test_beams_emit_one_file_per_bin(tmp_path):
    assert run("--out-dir", str(tmp_path), "beams", "--variant", "alg3",
               "--bins", "200,201,202,203", "--angles", "512") == 0
    files = sorted(p.name for p in tmp_path.glob("beam_alg3_*.csv"))
    assert files == [f"beam_alg3_{k}.csv" for k in (200, 201, 202, 203)]
    table = read_table_csv(tmp_path / "beam_alg3_200.csv")
    assert set(table) == {"angle_rad", "gain_re", "gain_im", "gain_abs"}
    np.testing.assert_allclose(
        table["gain_abs"],
        np.hypot(table["gain_re"], table["gain_im"]), atol=1e-12)


def test_beams_write_a_repeated_bin_once(tmp_path, capsys):
    assert run("--out-dir", str(tmp_path), "beams", "--variant", "alg1",
               "--bins", "0,3,3", "--angles", "64") == 0
    files = sorted(p.name for p in tmp_path.glob("beam_alg1_*.csv"))
    assert files == ["beam_alg1_0.csv", "beam_alg1_3.csv"]
    assert capsys.readouterr().out == f"wrote 2 beam files to {tmp_path}\n"


def test_filterbank_csv_round_trip(tmp_path):
    assert run("--out-dir", str(tmp_path), "filterbank", "--variant", "alg2",
               "--grid-size", "2048") == 0
    table = read_table_csv(tmp_path / "filterbank_alg2.csv")
    assert set(table) == {"frequency", "lower", "q1", "q2", "q3", "upper"}
    assert len(table["frequency"]) == 2048
    assert np.all(table["lower"] <= table["q1"] + 1e-12)
    assert np.all(table["q3"] <= table["upper"] + 1e-12)
    stats = read_json(tmp_path / "filterbank_alg2_stats.json")
    assert stats["variant"] == "alg2"
    assert -10.0 < stats["max_db"] < -8.0


def test_settings_come_from_flags_only(tmp_path, monkeypatch):
    # No config file, no verify subset and no output directory from the environment.
    config = tmp_path / "run.cfg"
    config.write_text("seed = 7\n")
    for argv in (("--config", str(config), "verify"), ("verify", "--only", "counts")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
    env_dir, cwd = tmp_path / "a", tmp_path / "b"
    env_dir.mkdir()
    cwd.mkdir()
    monkeypatch.setenv("ADFT1024_OUT_DIR", str(env_dir))
    monkeypatch.chdir(cwd)
    assert run("complexity") == 0
    assert sorted(p.name for p in cwd.iterdir()) == ["complexity_circuit.json",
                                                     "complexity_sequential.json"]
    assert list(env_dir.iterdir()) == []


def test_paper_mode_pins_reproduction_settings(tmp_path, monkeypatch):
    from adft1024.cli import build_parser
    # The defaults already are the paper's grid and cost model.
    parse = build_parser().parse_args
    assert parse(["--paper-mode", "filterbank", "--variant", "alg1"]).grid_size == 8192
    assert parse(["--paper-mode", "complexity"]).cost_model == "paper"
    seen = []
    real = analysis.snr_monte_carlo

    def record(variant, bins, replicates, **kwargs):
        seen.append(replicates)
        return real(variant, bins, replicates=50, **kwargs)

    monkeypatch.setattr(analysis, "snr_monte_carlo", record)
    snr = ("--out-dir", str(tmp_path), "snr", "--variant", "alg1", "--bins", "5")
    assert run("--paper-mode", *snr) == 0
    # An explicit flag overrides the paper-mode value.
    assert run("--paper-mode", *snr, "--replicates", "500") == 0
    assert run(*snr) == 0
    assert seen == [100_000, 500, 10_000]


@pytest.mark.parametrize("argv, files", [
    (("complexity",), ["complexity_circuit.json", "complexity_sequential.json"]),
    (("gen-matrix", "--variant", "alg1", "--what", "factors"),
     [f"W{k}.csv" for k in range(8)]),
    (("gen-matrix", "--variant", "alg3", "--what", "dense"), ["dense_alg3.csv"]),
    (("filterbank", "--variant", "alg2", "--grid-size", "2048"),
     ["filterbank_alg2.csv", "filterbank_alg2_stats.json"]),
    (("snr", "--variant", "alg1", "--replicates", "200", "--bins", "0,5,700"),
     ["snr_alg1.csv"]),
    (("beams", "--variant", "exact", "--bins", "3,700", "--angles", "256"),
     ["beam_exact_3.csv", "beam_exact_700.csv"]),
], ids=["complexity", "factors", "dense", "filterbank", "snr", "beams"])
def test_every_artifact_reads_back(tmp_path, argv, files):
    # Each file is read through adft1024.reports and, where a writer takes
    # the read-back value, written again to the same bytes.
    out = tmp_path / "out"
    assert run("--out-dir", str(out), *argv) == 0
    assert sorted(p.name for p in out.iterdir()) == files
    again = tmp_path / "again"
    for name in files:
        path = out / name
        if name.endswith(".json"):
            write_json(again, read_json(path))
        elif name.startswith("dense_"):
            write_dense_matrix_csv(again, read_matrix_csv(path, size=SIZE))
        else:
            if name.startswith("W"):
                np.testing.assert_array_equal(read_matrix_csv(path, size=32),
                                              build_w(int(name[1])).to_dense())
            table = read_table_csv(path)
            write_table_csv(again, tuple(table), tuple(table.values()))
        assert again.read_bytes() == path.read_bytes()
