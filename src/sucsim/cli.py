"""Command-line entry point.

One executable, subcommand per workflow. Results go to stdout and
diagnostics to stderr. Exit codes: 0 success, 1 operational failure
(rejected authentication, integrity or lifecycle errors), 2 usage errors.

Every result is a record or a table, and `--format` picks its encoding.
A record prints as `key: value` lines under plain, one CSV header and
row under csv, and a JSON object under json. A table prints as CSV under
plain and csv, and as a JSON list of objects under json. JSON keys are
sorted. One CSV writer serves stdout and every `--out` file: a cell is
str(value) and every line ends in a newline. Each `--out` CSV file gets
a `.json` sidecar that names it and holds the run's summary.

Devices are addressed by a path prefix: --device out/dev01 names the
pair out/dev01.silicon and out/dev01.envm, and its serial dev01.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

from . import analysis, authority, device, netlink
from .cipher import (
    SucParams,
    apply,
    block_from_hex,
    suc_log2_cardinality,
)
from .entropy import SeededEntropy, SystemEntropy
from .errors import SucError
from .sbox4 import (
    build_pool,
    profile4,
    read_pool,
    table_from_hex,
    write_pool,
)
from .sbox8 import (
    FeistelSpec,
    SBox8,
    class_log2_cardinality,
    feistel8,
    profile8,
    table8_from_hex,
    table8_to_hex,
)


def _entropy(seed):
    return SystemEntropy() if seed is None else SeededEntropy(seed)


def _seed(args) -> int:
    """Seed of the commands that default to 0 so published runs reproduce."""
    return 0 if args.seed is None else args.seed


def _pool(args):
    """The --pool file, or the seeded 256-entry pool when none is given."""
    return read_pool(args.pool) if args.pool else build_pool(256, SeededEntropy(_seed(args)))


def _device_ref(prefix: str):
    directory, serial = os.path.split(prefix)
    return directory or ".", serial


def _parse_listen(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"expected HOST:PORT with a port in 0..65535, got {text!r}")
    return host, int(port)


def _boot(args):
    """Boot the --device. One that cannot boot is reported on stderr and
    comes back with nothing loaded, so every challenge to it fails."""
    directory, serial = _device_ref(args.device)
    try:
        return device.boot(directory, serial)
    except SucError as exc:
        print(f"boot failed: {exc}", file=sys.stderr)
        return device.DeviceState(serial, b"", device.Envm())


def _json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _write_csv(f, columns, rows) -> None:
    """A header line, then one line per row."""
    w = csv.writer(f, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)


def _emit(args, payload: dict) -> None:
    """Print one record: JSON, one CSV header and row, or `key: value` lines."""
    if args.format == "json":
        print(_json(payload))
    elif args.format == "csv":
        _write_csv(sys.stdout, payload, [payload.values()])
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def _emit_table(args, columns, rows) -> None:
    """Print rows as a JSON list of objects, or as CSV."""
    if args.format == "json":
        print(_json([dict(zip(columns, row)) for row in rows]))
    else:
        _write_csv(sys.stdout, columns, rows)


def _save_table(path, columns, rows, summary: dict) -> None:
    """Write rows to the CSV file at path, and summary with the file's name
    to the sidecar beside it: path less any `.csv`, plus `.json`."""
    with open(path, "w", newline="") as f:
        _write_csv(f, columns, rows)
    with open(str(path).removesuffix(".csv") + ".json", "w") as f:
        f.write(_json({**summary, "csv": str(path)}) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_gen_pool(args) -> int:
    pool = build_pool(args.count, SeededEntropy(_seed(args)))
    write_pool(pool, args.out)
    _emit(args, {"count": pool.count, "digest": pool.digest.hex(), "out": args.out})
    return 0


def cmd_profile(args) -> int:
    p = profile4(table_from_hex(args.sbox))
    _emit(
        args,
        {
            "bijective": p.bijective,
            "lin": p.lin,
            "diff": p.diff,
            "branch_min": p.branch_min,
            "serpent_type": p.serpent_type,
        },
    )
    return 0


def cmd_build_sbox8(args) -> int:
    pool = read_pool(args.pool)
    try:
        indices = [int(part) for part in args.free.split(",")]
    except ValueError:
        raise ValueError(f"--free wants comma-separated integers, got {args.free!r}")
    for idx in indices:
        if not 0 <= idx < pool.count:
            raise ValueError(f"free index {idx} outside pool of {pool.count}")
    spec = FeistelSpec(r=args.r, free=tuple(pool.entry(i) for i in indices))
    box = feistel8(spec)
    with open(args.out, "w") as f:
        f.write(table8_to_hex(box) + "\n")
    prof = profile8(box)
    _emit(
        args,
        {
            "out": args.out,
            "involutive": prof.involutive,
            "lin": prof.lin,
            "diff": prof.diff,
        },
    )
    return 0


def _read_table8(path):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) == 256:
        return SBox8(raw)
    return table8_from_hex(raw.decode("ascii"))


def cmd_profile8(args) -> int:
    prof = profile8(_read_table8(args.table))
    _emit(
        args,
        {
            "bijective": prof.bijective,
            "involutive": prof.involutive,
            "lin": prof.lin,
            "diff": prof.diff,
            "branch_min": prof.branch_min,
            "max_diff_prob": prof.max_diff_prob,
            "max_lin_prob": prof.max_lin_prob,
        },
    )
    return 0


def cmd_personalize(args) -> int:
    directory, serial = _device_ref(args.device)
    pool = read_pool(args.pool)
    entropy = _entropy(args.seed)
    if not os.path.exists(device.silicon_path(directory, serial)):
        device.manufacture(directory, serial, entropy)
    dev = device.load_device(directory, serial)
    params = SucParams(rounds=args.rounds, feistel_r=args.feistel_r)
    device.otpp(dev, pool, params, entropy)
    device.save_envm(dev, directory)
    _emit(
        args,
        {
            "serial": serial,
            "lifecycle": dev.envm.lifecycle,
            "rounds": dev.envm.params.rounds,
            "feistel_r": dev.envm.params.feistel_r,
            "pool_digest": dev.envm.params.pool_digest.hex(),
            "index_draws": entropy.index_draws,
        },
    )
    return 0


def cmd_boot(args) -> int:
    directory, serial = _device_ref(args.device)
    dev = device.boot(directory, serial)
    _emit(
        args,
        {
            "serial": serial,
            "loaded": dev.loaded is not None,
            "rounds": dev.loaded.params.rounds,
            "feistel_r": dev.loaded.params.feistel_r,
        },
    )
    return 0


def cmd_respond(args) -> int:
    directory, serial = _device_ref(args.device)
    dev = device.boot(directory, serial)
    challenge = block_from_hex(args.challenge)
    print(apply(dev.loaded, challenge).hex())
    return 0


def cmd_tamper(args) -> int:
    directory, serial = _device_ref(args.device)
    device.tamper_envm(directory, serial, args.byte, xor=args.xor)
    print(
        f"flipped byte {args.byte} of {device.envm_path(directory, serial)}",
        file=sys.stderr,
    )
    return 0


def cmd_enroll(args) -> int:
    directory, serial = _device_ref(args.device)
    dev = device.boot(directory, serial)
    store = authority.UirStore(args.uir)
    channel = authority.LocalDeviceChannel(dev)
    record = authority.enroll(
        channel, args.pairs, _entropy(args.seed), params=dev.envm.params
    )
    store.create(record)
    _emit(
        args,
        {
            "serial": serial,
            "pairs": record.pair_count,
            "payload_bytes": record.payload_bytes,
        },
    )
    return 0


def cmd_authenticate(args) -> int:
    store = authority.UirStore(args.uir)
    result = authority.authenticate(
        authority.LocalDeviceChannel(_boot(args)), store, inverse=args.inverse
    )
    print(result.value)
    return 0 if result is authority.AuthResult.ACCEPTED else 1


def cmd_uir_stats(args) -> int:
    rows = authority.UirStore(args.uir).stats()
    _emit_table(args, ["serial", "pairs", "used", "unused"], rows)
    return 0


def cmd_serve_ta(args) -> int:
    store = authority.UirStore(args.uir)
    service = netlink.TaService(
        store,
        listen=_parse_listen(args.listen),
        enroll_pairs=args.enroll_pairs,
        entropy=_entropy(args.seed),
        timeout=args.timeout,
    )
    print(f"listening on {service.address[0]}:{service.address[1]}", file=sys.stderr)
    service.serve_forever()
    return 0


def cmd_agent(args) -> int:
    address = _parse_listen(args.connect)
    netlink.check_timeout(args.timeout)
    dev = _boot(args)
    failures = 0
    for _ in range(args.repeat):
        outcome = netlink.run_agent(dev, address, timeout=args.timeout)
        if outcome.enrolled:
            print(f"enrolled {outcome.enrolled} pairs")
        elif outcome.result is not None:
            print(outcome.result.value)
            if outcome.result is not authority.AuthResult.ACCEPTED:
                failures += 1
        else:
            print(f"error: {outcome.error or 'session closed'}")
            failures += 1
    return 1 if failures else 0


def cmd_avalanche(args) -> int:
    pool = _pool(args)
    cfg = analysis.AvalancheConfig(
        suc_count=args.sucs,
        trials_per_suc=args.trials,
        rounds=args.rounds,
        feistel_r=args.feistel_r,
        sbox_mode=args.sbox_mode,
        seed=_seed(args),
    )
    result = analysis.avalanche_histogram(cfg, pool)
    gof = analysis.chi_square_binomial(result.counts)
    summary = {
        "suc_count": cfg.suc_count,
        "trials_per_suc": cfg.trials_per_suc,
        "rounds": cfg.rounds,
        "feistel_r": cfg.feistel_r,
        "sbox_mode": cfg.sbox_mode,
        "seed": cfg.seed,
        "total": result.total,
        "mean": result.mean,
        "stddev": result.stddev,
        "chi2_statistic": gof.statistic,
        "chi2_dof": gof.dof,
        "chi2_p_value": gof.p_value,
        "chi2_rejected": gof.rejected,
    }
    _save_table(
        args.out, ["hamming_distance", "count"], enumerate(result.counts.tolist()), summary
    )
    _emit(
        args,
        {
            "mean": result.mean,
            "stddev": result.stddev,
            "total": result.total,
            "chi2_p_value": gof.p_value,
            "out": args.out,
        },
    )
    return 0


def cmd_avalanche_rounds(args) -> int:
    pool = _pool(args)
    cfg = analysis.AvalancheConfig(
        suc_count=args.sucs,
        trials_per_suc=args.trials,
        feistel_r=args.feistel_r,
        sbox_mode=args.sbox_mode,
        seed=_seed(args),
    )
    results = analysis.avalanche_vs_rounds(cfg, pool, args.rounds_from, args.rounds_to)
    columns = ["rounds", "min", "mean", "max", "stddev"]
    rows = [
        (r.config.rounds, r.min_distance, r.mean, r.max_distance, r.stddev)
        for r in results
    ]
    if args.out:
        summary = {
            "rounds": [r.config.rounds for r in results],
            "means": [r.mean for r in results],
        }
        _save_table(args.out, columns, rows, summary)
    _emit_table(args, columns, rows)
    return 0


def cmd_cost_model(args) -> int:
    consts = analysis.DEFAULT_COSTS
    if args.grid:
        r_values = list(range(3, 16, 2))
        set_sizes = [2 ** e for e in range(8, 22)]
        rows = analysis.otpp_grid(r_values, set_sizes, consts)
        columns = ["r", "set_size", "total_ms"]
        if args.out:
            _save_table(args.out, columns, rows, {"r": r_values, "set_size": set_sizes})
        _emit_table(args, columns, rows)
        return 0
    cost = analysis.tau_otpp(args.r, args.set_size, consts)
    reinit = analysis.reinit_time(consts)
    payload = {
        "r": args.r,
        "set_size": args.set_size,
        "kappa_trng_bits": analysis.kappa_trng(args.r, args.set_size),
        "kappa_trng_bytes": analysis.kappa_trng(args.r, args.set_size, "bytes"),
        "trng_ms": cost.trng_ms,
        "sbox_gen_ms": cost.sbox_gen_ms,
        "puf_ms": cost.puf_ms,
        "encrypt_ms": cost.encrypt_ms,
        "envm_ms": cost.envm_ms,
        "otpp_total_ms": cost.total_ms,
        "reinit_total_ms": reinit.total_ms,
        "cipher_us_at_50mhz": analysis.hardware_latency_anchor(50, consts),
        "cipher_us_at_200mhz": analysis.hardware_latency_anchor(200, consts),
    }
    _emit(args, payload)
    return 0


def cmd_cardinality(args) -> int:
    payload = {
        "r": args.r,
        "set_size": args.set_size,
        "class_log2": class_log2_cardinality(args.r, args.set_size),
        "suc_log2": suc_log2_cardinality(args.r, args.set_size),
    }
    _emit(args, payload)
    return 0


def cmd_bound_report(args) -> int:
    pool = _pool(args)
    report = analysis.bound_report(
        pool,
        count=args.count,
        feistel_r=args.feistel_r,
        seed=_seed(args),
    )
    summary = {
        "count": report.count,
        "bound": report.bound,
        "frac_diff_exceeding": report.frac_diff_exceeding,
        "frac_lin_exceeding": report.frac_lin_exceeding,
    }
    if args.out:
        rows = zip(range(report.count), report.diff_probs, report.lin_probs)
        _save_table(args.out, ["index", "max_diff_prob", "max_lin_prob"], rows, summary)
    _emit(args, summary)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="deterministic entropy seed")
    common.add_argument("--verbose", action="store_true", help="debug logging")
    common.add_argument(
        "--format",
        choices=["plain", "json", "csv"],
        default="plain",
        help="stdout encoding for structured results",
    )

    parser = argparse.ArgumentParser(
        prog="sucsim",
        description="Involutive-cipher device emulation and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-pool", parents=[common], help="generate a verified S-box pool")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_pool)

    p = sub.add_parser("profile", parents=[common], help="profile a 4-bit S-box")
    p.add_argument("--sbox", required=True, metavar="HEX16")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "build-sbox8", parents=[common], help="build an involutive byte table"
    )
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--free", required=True, metavar="IDX,IDX")
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True, metavar="HEX512")
    p.set_defaults(fn=cmd_build_sbox8)

    p = sub.add_parser("profile8", parents=[common], help="profile an 8-bit table")
    p.add_argument("--table", required=True)
    p.set_defaults(fn=cmd_profile8)

    p = sub.add_parser(
        "personalize", parents=[common], help="one-time device personalization"
    )
    p.add_argument("--device", required=True, metavar="PREFIX")
    p.add_argument("--pool", required=True)
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--feistel-r", type=int, default=3)
    p.set_defaults(fn=cmd_personalize)

    p = sub.add_parser("boot", parents=[common], help="reload the device cipher")
    p.add_argument("--device", required=True, metavar="PREFIX")
    p.set_defaults(fn=cmd_boot)

    p = sub.add_parser("respond", parents=[common], help="answer one challenge")
    p.add_argument("--device", required=True, metavar="PREFIX")
    p.add_argument("--challenge", required=True, metavar="HEX16")
    p.set_defaults(fn=cmd_respond)

    p = sub.add_parser("tamper", parents=[common], help="flip one stored byte (test helper)")
    p.add_argument("--device", required=True, metavar="PREFIX")
    p.add_argument("--byte", type=int, required=True)
    p.add_argument("--xor", type=int, default=0xFF)
    p.set_defaults(fn=cmd_tamper)

    p = sub.add_parser("enroll", parents=[common], help="record challenge-response pairs")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--device", required=True, metavar="PREFIX")
    p.add_argument("--uir", required=True, metavar="DIR")
    p.set_defaults(fn=cmd_enroll)

    p = sub.add_parser("authenticate", parents=[common], help="consume one pair")
    p.add_argument("--device", required=True, metavar="PREFIX")
    p.add_argument("--uir", required=True, metavar="DIR")
    p.add_argument("--inverse", action="store_true", help="send the response, expect the challenge")
    p.set_defaults(fn=cmd_authenticate)

    p = sub.add_parser("uir-stats", parents=[common], help="record usage counters")
    p.add_argument("--uir", required=True, metavar="DIR")
    p.set_defaults(fn=cmd_uir_stats)

    p = sub.add_parser("serve-ta", parents=[common], help="run the authority service")
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.add_argument("--uir", required=True, metavar="DIR")
    p.add_argument("--enroll-pairs", type=int, default=16)
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(fn=cmd_serve_ta)

    p = sub.add_parser("agent", parents=[common], help="device-side protocol client")
    p.add_argument("--device", required=True, metavar="PREFIX")
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--timeout", type=float, default=10.0)
    p.set_defaults(fn=cmd_agent)

    p = sub.add_parser("avalanche", parents=[common], help="bit-flip diffusion histogram")
    p.add_argument("--sucs", type=int, default=1000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--feistel-r", type=int, default=3)
    p.add_argument("--sbox-mode", choices=analysis.SBOX_MODES, default="single-replicated")
    p.add_argument("--pool", default=None)
    p.add_argument("--out", required=True, metavar="FILE.csv")
    p.set_defaults(fn=cmd_avalanche)

    p = sub.add_parser(
        "avalanche-rounds", parents=[common], help="diffusion sweep over round counts"
    )
    p.add_argument("--from", dest="rounds_from", type=int, default=1)
    p.add_argument("--to", dest="rounds_to", type=int, default=32)
    p.add_argument("--sucs", type=int, default=100)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--feistel-r", type=int, default=3)
    p.add_argument("--sbox-mode", choices=analysis.SBOX_MODES, default="single-replicated")
    p.add_argument("--pool", default=None)
    p.add_argument("--out", default=None, metavar="FILE.csv")
    p.set_defaults(fn=cmd_avalanche_rounds)

    p = sub.add_parser("cost-model", parents=[common], help="latency model evaluation")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--set-size", type=int, default=256)
    p.add_argument("--grid", action="store_true", help="sweep r and set size")
    p.add_argument("--out", default=None, metavar="FILE.csv")
    p.set_defaults(fn=cmd_cost_model)

    p = sub.add_parser("cardinality", parents=[common], help="instance-space size")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--set-size", type=int, required=True)
    p.set_defaults(fn=cmd_cardinality)

    p = sub.add_parser(
        "bound-report", parents=[common], help="strength distribution of built tables"
    )
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--feistel-r", type=int, default=3)
    p.add_argument("--pool", default=None)
    p.add_argument("--out", default=None, metavar="FILE.csv")
    p.set_defaults(fn=cmd_bound_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level_name = "DEBUG" if args.verbose else os.environ.get("SUCSIM_LOG", "WARNING")
    logging.basicConfig(
        level=getattr(logging, level_name.upper(), logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return rc
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SucError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
