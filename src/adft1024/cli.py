"""Command-line front end: matrix generation, verification and reports.

Every command writes deterministic artifacts for a given set of flags (and
seed, where randomness is involved), so outputs are directly comparable in
CI or across machines.  Exit codes: 0 success, 1 a verification check
failed, 2 a usage, I/O or allocation error (one ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, complexity, reports
from .factors import FACTOR_LABELS, STAGE_ADDITIONS, SparseFactor, all_factors
from .radix32 import (APPROX_VARIANTS, SIZE, Variant, VARIANTS, invvec, transform_1024,
                      transform_matrix, twiddle_matrix, vec)
from .transforms import OUTPUT_SCALE, dft_direct, dft_matrix, factor_product

_COST_MODELS = sorted(s.value for s in complexity.ComplexMultScheme)


def _parse_bins(text: str) -> list[int]:
    try:
        out = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad bin list {text!r}") from exc
    if not out:
        raise argparse.ArgumentTypeError("empty bin list")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adft1024",
        description="Multiplierless approximate-DFT transform and analysis reports.")
    parser.add_argument("--out-dir", type=Path, default=".", help="output directory (default .)")
    parser.add_argument("--paper-mode", action="store_true",
                        help="run snr with 100000 replicates unless --replicates is given")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-matrix", help="emit kernel factors or a dense transform matrix")
    p.add_argument("--variant", choices=[v.value for v in VARIANTS], required=True)
    p.add_argument("--what", choices=["factors", "dense"], default="factors")
    p.set_defaults(run=cmd_gen_matrix)

    p = sub.add_parser("verify", help="run the invariant suite; exit 1 on any failure")
    p.add_argument("--corrupt-factor", choices=list(FACTOR_LABELS),
                   help="(testing aid) flip one coefficient before checking")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("complexity", help="emit sequential and circuit complexity reports")
    p.add_argument("--model", dest="cost_model", choices=_COST_MODELS, default="paper")
    p.add_argument("--count-trivial", action="store_true",
                   help="cost all 1024 twiddles instead of the 961 nontrivial ones")
    p.set_defaults(run=cmd_complexity)

    p = sub.add_parser("filterbank", help="emit frequency-response error curves and stats")
    p.add_argument("--variant", choices=[v.value for v in VARIANTS], required=True)
    p.add_argument("--grid-size", type=int, default=analysis.GRID_SIZE)
    p.set_defaults(run=cmd_filterbank)

    p = sub.add_parser("snr", help="emit Monte-Carlo per-bin SNR estimates")
    p.add_argument("--variant", choices=[v.value for v in APPROX_VARIANTS], required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=_parse_bins, default=list(range(0, SIZE, SIZE // 64)),
                   help="comma-separated bin list (default: 64 evenly spaced)")
    p.add_argument("--noise-var", type=float, default=1.0)
    p.set_defaults(run=cmd_snr)

    p = sub.add_parser("beams", help="emit beam-pattern CSVs for selected bins")
    p.add_argument("--variant", choices=[v.value for v in VARIANTS], required=True)
    p.add_argument("--bins", type=_parse_bins, required=True)
    p.add_argument("--angles", type=int, default=analysis.ANGLES)
    p.set_defaults(run=cmd_beams)

    return parser


def cmd_gen_matrix(args) -> int:
    variant = Variant(args.variant)
    if args.what == "factors":
        if variant is Variant.EXACT:
            raise ValueError("the exact variant has no sparse factors")
        factors = all_factors()
        for factor in factors:
            reports.write_sparse_factor_csv(args.out_dir / f"{factor.label}.csv", factor)
        print(f"wrote {len(factors)} factor files to {args.out_dir}")
        return 0
    matrix = transform_matrix(variant)
    path = args.out_dir / f"dense_{variant.value}.csv"
    reports.write_dense_matrix_csv(path, matrix)
    print(f"wrote {path}")
    return 0


def _verify_oracle(rng):
    # numpy's FFT shares no root table with dft_matrix.
    worst = 0.0
    for _ in range(200):
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        ref = dft_direct(x)
        got = np.fft.fft(x, norm="ortho")
        worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
    yield ("fft32-vs-direct", worst < 1e-10, f"worst rel err {worst:.2e}")
    x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    ref = dft_direct(x)
    rel = np.linalg.norm(np.fft.fft(x, norm="ortho") - ref) / np.linalg.norm(ref)
    yield ("fft1024-vs-direct", rel < 1e-9, f"rel err {rel:.2e}")
    batch = rng.standard_normal((SIZE, 5)) + 1j * rng.standard_normal((SIZE, 5))
    got = transform_1024(batch, Variant.EXACT)
    ref = dft_direct(batch)
    worst = (np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)).max()
    yield ("exact-pipeline-vs-direct", worst < 1e-9, f"worst rel err {worst:.2e}")
    bad = 0.0
    for n in (2, 4, 8, 16, 32):
        f = dft_matrix(n)
        bad = max(bad, np.abs(f @ f.conj().T - np.eye(n)).max())
    yield ("unitarity", bad < 1e-10, f"max deviation {bad:.2e}")


def _verify_counts(factors):
    profile = complexity.adft32_addition_profile()
    yield ("kernel-additions",
           profile == list(STAGE_ADDITIONS) and sum(profile) == 348,
           f"profile {profile}")
    mults, adds = complexity.count_instrumented_adft32()
    yield ("kernel-mult-free", (mults, adds) == (0, 348), f"({mults}, {adds})")
    sizes_ok = all(f.size == 32 for f in factors)
    nnz_ok = all(f.nonzeros_per_row().max() <= 3 for f in factors)
    yield ("factor-shapes", sizes_ok and nnz_ok, "32x32, rows <= 3 nonzeros")
    tw = twiddle_matrix()
    yield ("twiddle-counts",
           int(tw.trivial_mask.sum()) == 63 and tw.nontrivial_count == 961,
           f"trivial {int(tw.trivial_mask.sum())}, nontrivial {tw.nontrivial_count}")
    seq_ok, all_msgs = True, []
    for variant in VARIANTS:
        rep = complexity.count_sequential(variant)
        if not rep.matches_reference:
            seq_ok = False
        all_msgs.append(f"{variant.value}=({rep.real_mults},{rep.real_adds})")
    yield ("sequential-table", seq_ok, " ".join(all_msgs))
    circ_msgs = []
    circ_ok = True
    for variant in VARIANTS:
        rep = complexity.circuit_complexity(variant)
        if variant is Variant.EXACT:
            ok = rep.multiplier_circuits == 252 and rep.adder_circuits == 956
            circ_msgs.append(
                f"exact=({rep.multiplier_circuits},{rep.adder_circuits};"
                f" published {rep.paper_table_values[1]})")
        else:
            ok = rep.matches_paper_table
            circ_msgs.append(f"{variant.value}=({rep.multiplier_circuits},{rep.adder_circuits})")
        circ_ok = circ_ok and ok
    yield ("circuit-table", circ_ok, " ".join(circ_msgs))


def _verify_error(factors, rng):
    product = factor_product(factors)
    integer = (np.all(product.real == np.rint(product.real))
               and np.all(product.imag == np.rint(product.imag)))
    yield ("gaussian-integer-closure", integer, "raw product entries")
    k, m = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    unnormalized = np.exp(-2j * np.pi * k * m / 32)
    rounded = np.round(unnormalized.real) + 1j * np.round(unnormalized.imag)
    yield ("kernel-rounding", np.array_equal(product, rounded),
           "raw product == entrywise rounding of the unnormalized exact kernel")
    invertible = all(abs(np.linalg.det(f.to_dense())) > 1e-9 for f in factors)
    yield ("factor-invertibility", invertible, "all eight stages")
    # Each kernel row's response on the analysis grid by FFT; (-1)^n puts its origin at -pi.
    h_exact, h_hat = (np.fft.fft(kernel * (-1.0) ** np.arange(32), n=analysis.GRID_SIZE)
                      for kernel in (dft_matrix(32), OUTPUT_SCALE * product))
    peak = np.abs(h_exact).max(axis=1)
    worst = float((np.abs(h_hat - h_exact).max(axis=1) / peak).max())
    worst_db = 20 * np.log10(worst)
    yield ("kernel-response-band", -11.5 <= worst_db <= -9.5,
           f"worst row error {worst_db:.2f} dB")
    x = rng.standard_normal(SIZE) + 1j * rng.standard_normal(SIZE)
    yield ("vec-invvec-roundtrip", np.array_equal(vec(invvec(x)), x), "exact")


def cmd_verify(args) -> int:
    rng = np.random.default_rng(2024)
    factors = list(all_factors())
    if args.corrupt_factor:
        idx = FACTOR_LABELS.index(args.corrupt_factor)
        dirty = factors[idx]
        r, c, v = dirty.entries[-1]
        entries = dirty.entries[:-1] + ((r, c, -v),)
        factors[idx] = SparseFactor(dirty.label, dirty.size, entries)
    # Each section yields (name, ok, detail).
    results = [*_verify_oracle(rng), *_verify_counts(factors), *_verify_error(factors, rng)]
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_complexity(args) -> int:
    model = complexity.CostModel(
        complex_mult_scheme=complexity.ComplexMultScheme(args.cost_model),
        count_trivial_twiddles=args.count_trivial,
    )
    sequential = [complexity.count_sequential(v, model).to_json_dict() for v in VARIANTS]
    circuits = [complexity.circuit_complexity(v).to_json_dict() for v in VARIANTS]
    reports.write_json(args.out_dir / "complexity_sequential.json", sequential)
    reports.write_json(args.out_dir / "complexity_circuit.json", circuits)
    print(f"wrote complexity reports to {args.out_dir}")
    return 0


def cmd_filterbank(args) -> int:
    variant = Variant(args.variant)
    stats = analysis.filterbank_error(variant, args.grid_size)
    reports.write_table_csv(
        args.out_dir / f"filterbank_{variant.value}.csv",
        ("frequency", "lower", "q1", "q2", "q3", "upper"),
        (stats.frequencies, stats.lower_envelope, stats.q1, stats.q2,
         stats.q3, stats.upper_envelope))
    reports.write_json(args.out_dir / f"filterbank_{variant.value}_stats.json", {
        "variant": variant.value,
        "min_db": stats.min_db,
        "mean_db": stats.mean_db,
        "max_db": stats.max_db,
        "grid_size": args.grid_size,
    })
    print(f"wrote filterbank reports for {variant.value} to {args.out_dir}")
    return 0


def cmd_snr(args) -> int:
    variant = Variant(args.variant)
    replicates = args.replicates
    if replicates is None:
        replicates = 100_000 if args.paper_mode else analysis.REPLICATES
    report = analysis.snr_monte_carlo(variant, args.bins, replicates=replicates,
                                      noise_var=args.noise_var, seed=args.seed)
    reports.write_table_csv(
        args.out_dir / f"snr_{variant.value}.csv",
        ("bin", "snr_exact_db", "snr_variant_db", "degradation_db"),
        (report.bins, report.snr_exact_db, report.snr_variant_db,
         report.degradation_db))
    print(f"wrote snr_{variant.value}.csv (worst degradation "
          f"{report.worst_degradation_db:.3f} dB)")
    return 0


def cmd_beams(args) -> int:
    variant = Variant(args.variant)
    bins = list(dict.fromkeys(args.bins))  # one file per bin, first-seen order
    patterns = analysis.beam_pattern(variant, bins, analysis.default_angles(args.angles))
    for pattern in patterns:
        reports.write_table_csv(
            args.out_dir / f"beam_{variant.value}_{pattern.bin_index}.csv",
            ("angle_rad", "gain_re", "gain_im", "gain_abs"),
            (pattern.angles, pattern.gain.real, pattern.gain.imag,
             pattern.magnitude))
    print(f"wrote {len(patterns)} beam files to {args.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
