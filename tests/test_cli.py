"""End-to-end exercises of the command-line surface.

Everything runs in-process through cli.main so capsys sees stdout and
exit codes are returned, not raised. The one exception is serve-ta,
which blocks forever by design and therefore runs as a subprocess.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import threading

import pytest

from sucsim import cli, device, netlink
from sucsim.entropy import SeededEntropy
from sucsim.sbox4 import (
    POOL_MAGIC,
    POOL_VERSION,
    SBoxPool,
    is_serpent_type,
    read_pool,
    write_pool,
)
from sucsim.sbox8 import profile8, table8_from_hex

SERPENT_S0_HEX = "38f1a65bed42709c"
KAT_ZERO_IN = "0000000000000000"
KAT_ZERO_OUT = "8e851f7dae8e0044"
POOL256_SEED0_DIGEST = "3f59945737d7bb51e7487b7740a0e6a33e2c34cc6fa7c18312fd8c7bdb987c19"

SUBCOMMANDS = [
    "gen-pool",
    "profile",
    "build-sbox8",
    "profile8",
    "personalize",
    "boot",
    "respond",
    "tamper",
    "enroll",
    "authenticate",
    "uir-stats",
    "serve-ta",
    "agent",
    "avalanche",
    "avalanche-rounds",
    "cost-model",
    "cardinality",
    "bound-report",
]


@pytest.fixture(scope="module")
def pool32_file(tmp_path_factory, pool32):
    path = tmp_path_factory.mktemp("pools") / "pool32.bin"
    write_pool(pool32, str(path))
    return str(path)


@pytest.fixture(scope="module")
def pool256_file(tmp_path_factory, pool256):
    path = tmp_path_factory.mktemp("pools") / "pool256.bin"
    write_pool(pool256, str(path))
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# parser plumbing

def test_top_level_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "subcommand" in capsys.readouterr().out or True


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_zero(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert name in out


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# stateless commands

def test_cardinality_plain(capsys):
    rc, out, _ = run(capsys, "cardinality", "--r", "13", "--set-size", str(2 ** 21))
    assert rc == 0
    assert "class_log2: 147.0" in out
    assert "suc_log2: 1176.0" in out


def test_cardinality_json(capsys):
    rc, out, _ = run(
        capsys, "cardinality", "--r", "13", "--set-size", str(2 ** 21),
        "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["class_log2"] == 147.0
    assert payload["suc_log2"] == 1176.0


def test_cardinality_csv(capsys):
    rc, out, _ = run(
        capsys, "cardinality", "--r", "3", "--set-size", "256", "--format", "csv"
    )
    assert rc == 0
    header, values = out.strip().splitlines()
    assert header == "r,set_size,class_log2,suc_log2"
    assert values == "3,256,16.0,128.0"


def test_cost_model_json(capsys):
    rc, out, _ = run(capsys, "cost-model", "--r", "3", "--set-size", "256",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["kappa_trng_bits"] == 128
    assert payload["kappa_trng_bytes"] == 16
    assert payload["otpp_total_ms"] == pytest.approx(647.679, abs=0.1)
    assert payload["reinit_total_ms"] == pytest.approx(51.1, abs=0.05)
    assert payload["cipher_us_at_50mhz"] == pytest.approx(2.88)
    assert payload["cipher_us_at_200mhz"] == pytest.approx(0.72)


def test_cost_model_grid(capsys):
    rc, out, _ = run(capsys, "cost-model", "--grid")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,set_size,total_ms"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7 * 14  # r in 3..15 odd, set size 2^8..2^21
    assert all(len(row) == 3 for row in rows)


def test_profile_serpent_entry(capsys):
    rc, out, _ = run(capsys, "profile", "--sbox", SERPENT_S0_HEX)
    assert rc == 0
    assert "bijective: True" in out
    assert "lin: 8" in out
    assert "diff: 4" in out
    assert "serpent_type: True" in out


def test_profile_constant_table(capsys):
    rc, out, _ = run(capsys, "profile", "--sbox", "0" * 16)
    assert rc == 0
    assert "bijective: False" in out
    assert "serpent_type: False" in out


def test_profile_bad_hex_is_usage_error(capsys):
    rc, _, err = run(capsys, "profile", "--sbox", "zz" * 8)
    assert rc == 2
    assert err.startswith("usage error:")


def test_profile_short_hex_is_usage_error(capsys):
    rc, _, err = run(capsys, "profile", "--sbox", "0123")
    assert rc == 2
    assert "16 hex digits" in err


# ---------------------------------------------------------------------------
# pool and table files

def test_gen_pool_roundtrip(capsys, tmp_path):
    out_file = str(tmp_path / "pool.bin")
    rc, out, _ = run(capsys, "gen-pool", "--count", "4", "--seed", "7",
                     "--out", out_file)
    assert rc == 0
    pool = read_pool(out_file)
    assert pool.count == 4
    assert all(is_serpent_type(entry) for entry in pool.entries)
    assert f"digest: {pool.digest.hex()}" in out


def test_gen_pool_default_seed_is_zero(capsys, tmp_path):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    run(capsys, "gen-pool", "--count", "3", "--out", a)
    run(capsys, "gen-pool", "--count", "3", "--seed", "0", "--out", b)
    assert read_pool(a).entries == read_pool(b).entries


def test_build_sbox8_then_profile8(capsys, tmp_path, pool32_file):
    table_file = str(tmp_path / "box.hex")
    rc, out, _ = run(capsys, "build-sbox8", "--r", "3", "--free", "0,1",
                     "--pool", pool32_file, "--out", table_file)
    assert rc == 0
    assert "involutive: True" in out

    rc, out, _ = run(capsys, "profile8", "--table", table_file)
    assert rc == 0
    assert "bijective: True" in out
    assert "involutive: True" in out


def test_profile8_reads_raw_bytes(capsys, tmp_path, pool32_file):
    table_file = str(tmp_path / "box.hex")
    run(capsys, "build-sbox8", "--r", "1", "--free", "2", "--pool", pool32_file,
        "--out", table_file)
    hex_text = (tmp_path / "box.hex").read_text()
    box = table8_from_hex(hex_text)
    raw_file = tmp_path / "box.bin"
    raw_file.write_bytes(box.table)

    rc, out, _ = run(capsys, "profile8", "--table", str(raw_file))
    assert rc == 0
    assert f"involutive: {profile8(box).involutive}" in out


def test_build_sbox8_index_out_of_range(capsys, tmp_path, pool32_file):
    rc, _, err = run(capsys, "build-sbox8", "--r", "3", "--free", "0,99",
                     "--pool", pool32_file, "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "outside pool" in err


def test_build_sbox8_malformed_free_list(capsys, tmp_path, pool32_file):
    rc, _, err = run(capsys, "build-sbox8", "--r", "3", "--free", "a,b",
                     "--pool", pool32_file, "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "comma-separated" in err


# ---------------------------------------------------------------------------
# device lifecycle through the CLI

def test_personalize_boot_respond_kat(capsys, tmp_path, pool256_file):
    prefix = str(tmp_path / "dev01")
    # Pre-manufacture so the seed-0 stream is untouched when tables are drawn.
    device.manufacture(str(tmp_path), "dev01", SeededEntropy(99))
    rc, out, _ = run(capsys, "personalize", "--device", prefix,
                     "--pool", pool256_file, "--seed", "0")
    assert rc == 0
    assert "lifecycle: personalized" in out
    assert f"pool_digest: {POOL256_SEED0_DIGEST}" in out
    assert "index_draws: 16" in out

    rc, out, _ = run(capsys, "boot", "--device", prefix)
    assert rc == 0
    assert "loaded: True" in out
    assert "rounds: 15" in out

    rc, out, _ = run(capsys, "respond", "--device", prefix,
                     "--challenge", KAT_ZERO_IN)
    assert rc == 0
    assert out.strip() == KAT_ZERO_OUT


def test_respond_is_an_involution(capsys, tmp_path, pool32_file):
    prefix = str(tmp_path / "devinv")
    run(capsys, "personalize", "--device", prefix, "--pool", pool32_file,
        "--seed", "3")
    challenge = "0123456789abcdef"
    _, first, _ = run(capsys, "respond", "--device", prefix,
                      "--challenge", challenge)
    _, second, _ = run(capsys, "respond", "--device", prefix,
                       "--challenge", first.strip())
    assert second.strip() == challenge


def test_personalize_refuses_an_empty_pool_before_making_a_device(capsys, tmp_path):
    pool_file = tmp_path / "empty.pool"
    head = struct.pack(">8sH6xI", POOL_MAGIC, POOL_VERSION, 0)
    pool_file.write_bytes(head + hashlib.sha256(b"").digest())
    rc, out, err = run(capsys, "personalize", "--device", str(tmp_path / "d" / "dev01"),
                       "--pool", str(pool_file), "--seed", "0")
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "no entries" in err
    assert not os.path.exists(tmp_path / "d")


def test_personalize_refuses_a_pool_outside_the_class(capsys, tmp_path):
    # the all-zero table and the identity, written with a correct digest
    pool_file = str(tmp_path / "weak.pool")
    write_pool(SBoxPool(blob=bytes(16) + bytes(range(16))), pool_file)
    rc, out, err = run(capsys, "personalize", "--device", str(tmp_path / "d" / "dev01"),
                       "--pool", pool_file, "--seed", "0")
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and "not a Serpent-type" in err
    assert not os.path.exists(tmp_path / "d")


def test_personalize_twice_fails(capsys, tmp_path, pool32_file):
    prefix = str(tmp_path / "dev2")
    rc, _, _ = run(capsys, "personalize", "--device", prefix,
                   "--pool", pool32_file, "--seed", "1")
    assert rc == 0
    rc, _, err = run(capsys, "personalize", "--device", prefix,
                     "--pool", pool32_file, "--seed", "1")
    assert rc == 1
    assert err.startswith("error:")


def test_boot_before_personalize_fails(capsys, tmp_path):
    prefix = str(tmp_path / "ghost")
    rc, _, err = run(capsys, "boot", "--device", prefix)
    assert rc == 1
    assert err.startswith("error:")


def test_tamper_bricks_boot(capsys, tmp_path, pool32_file):
    prefix = str(tmp_path / "dev3")
    run(capsys, "personalize", "--device", prefix, "--pool", pool32_file,
        "--seed", "2")
    rc, _, _ = run(capsys, "tamper", "--device", prefix, "--byte", "40")
    assert rc == 0
    rc, _, err = run(capsys, "boot", "--device", prefix)
    assert rc == 1
    assert err.startswith("error:")


def test_respond_bad_challenge_is_usage_error(capsys, tmp_path, pool32_file):
    prefix = str(tmp_path / "dev4")
    run(capsys, "personalize", "--device", prefix, "--pool", pool32_file,
        "--seed", "4")
    rc, _, err = run(capsys, "respond", "--device", prefix, "--challenge", "xyz")
    assert rc == 2
    assert "16 hex digits" in err


# ---------------------------------------------------------------------------
# local enrollment and authentication

def enrolled_device(capsys, tmp_path, pool_file, pairs=3, name="dev01"):
    prefix = str(tmp_path / name)
    uir = str(tmp_path / "uir")
    run(capsys, "personalize", "--device", prefix, "--pool", pool_file,
        "--seed", "5")
    rc, out, _ = run(capsys, "enroll", "--pairs", str(pairs), "--device", prefix,
                     "--uir", uir, "--seed", "6")
    assert rc == 0
    assert f"pairs: {pairs}" in out
    return prefix, uir, name


def test_enroll_then_authenticate_until_exhausted(capsys, tmp_path, pool32_file):
    prefix, uir, name = enrolled_device(capsys, tmp_path, pool32_file, pairs=3)
    for _ in range(3):
        rc, out, _ = run(capsys, "authenticate", "--device", prefix, "--uir", uir)
        assert rc == 0
        assert out.strip() == "accepted"
    rc, out, _ = run(capsys, "authenticate", "--device", prefix, "--uir", uir)
    assert rc == 1
    assert out.strip() == "exhausted"


def test_inverse_authentication_accepts_involution(capsys, tmp_path, pool32_file):
    prefix, uir, name = enrolled_device(capsys, tmp_path, pool32_file, pairs=2)
    rc, out, _ = run(capsys, "authenticate", "--device", prefix,
                     "--uir", uir, "--inverse")
    assert rc == 0
    assert out.strip() == "accepted"


def test_tampered_device_is_rejected_and_burns_a_pair(capsys, tmp_path, pool32_file):
    prefix, uir, name = enrolled_device(capsys, tmp_path, pool32_file, pairs=2)
    run(capsys, "tamper", "--device", prefix, "--byte", "33")
    rc, out, err = run(capsys, "authenticate", "--device", prefix, "--uir", uir)
    assert rc == 1
    assert out.strip() == "rejected"
    assert err.startswith("boot failed: ")

    rc, out, _ = run(capsys, "uir-stats", "--uir", uir)
    assert rc == 0
    assert f"{name},2,1,1" in out


def test_uir_stats_json(capsys, tmp_path, pool32_file):
    prefix, uir, name = enrolled_device(capsys, tmp_path, pool32_file, pairs=4)
    run(capsys, "authenticate", "--device", prefix, "--uir", uir)
    rc, out, _ = run(capsys, "uir-stats", "--uir", uir, "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert rows == [{"serial": name, "pairs": 4, "used": 1, "unused": 3}]


def test_authenticate_without_a_record_is_a_clean_error(capsys, tmp_path, pool32_file):
    prefix = str(tmp_path / "dev01")
    uir = tmp_path / "uir"
    run(capsys, "personalize", "--device", prefix, "--pool", pool32_file,
        "--seed", "5")
    rc, out, err = run(capsys, "authenticate", "--device", prefix, "--uir", str(uir))
    assert rc == 1
    assert (out, err) == ("", "error: no record for serial 'dev01'\n")
    assert list(uir.iterdir()) == []  # the record lock created nothing


# ---------------------------------------------------------------------------
# analysis commands

def test_avalanche_writes_csv_and_sidecar(capsys, tmp_path, pool32_file):
    out_file = tmp_path / "hist.csv"
    rc, out, _ = run(capsys, "avalanche", "--sucs", "4", "--trials", "6",
                     "--pool", pool32_file, "--out", str(out_file))
    assert rc == 0
    assert "mean:" in out and "chi2_p_value:" in out

    assert b"\r" not in out_file.read_bytes()
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "hamming_distance,count"
    assert len(lines) == 66
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 4 * 6 * 64

    sidecar = json.loads(out_file.with_suffix(".json").read_text())
    assert sidecar["total"] == 4 * 6 * 64
    assert sidecar["suc_count"] == 4


def test_avalanche_rounds_stdout(capsys, tmp_path, pool32_file):
    rc, out, _ = run(capsys, "avalanche-rounds", "--from", "1", "--to", "3",
                     "--sucs", "2", "--trials", "4", "--pool", pool32_file)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rounds,min,mean,max,stddev"
    assert len(lines) == 4
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3]


def test_avalanche_rounds_writes_csv_and_sidecar(capsys, tmp_path, pool32_file):
    out_file = tmp_path / "rounds.csv"
    rc, out, _ = run(capsys, "avalanche-rounds", "--from", "1", "--to", "2",
                     "--sucs", "3", "--trials", "4", "--pool", pool32_file,
                     "--out", str(out_file))
    assert rc == 0
    text = out_file.read_bytes().decode()
    assert text == out  # the file holds the table stdout printed
    assert "\r" not in text
    rows = list(csv.DictReader(io.StringIO(text)))
    assert list(rows[0]) == ["rounds", "min", "mean", "max", "stddev"]
    assert [row["rounds"] for row in rows] == ["1", "2"]

    sidecar = json.loads(out_file.with_suffix(".json").read_text())
    assert sidecar == {
        "rounds": [1, 2],
        "means": [float(row["mean"]) for row in rows],
        "csv": str(out_file),
    }


def test_cost_model_grid_writes_csv_and_sidecar(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    rc, out, _ = run(capsys, "cost-model", "--grid", "--out", str(out_file))
    assert rc == 0
    text = out_file.read_bytes().decode()
    assert text == out
    assert text.startswith("r,set_size,total_ms\n")
    assert len(text.splitlines()) == 1 + 7 * 14

    sidecar = json.loads(out_file.with_suffix(".json").read_text())
    assert sidecar == {
        "r": list(range(3, 16, 2)),
        "set_size": [2 ** e for e in range(8, 22)],
        "csv": str(out_file),
    }


def _parse_table(fmt, out):
    """Rows as lists of string cells, from JSON objects or from CSV."""
    if fmt == "json":
        return [{k: str(v) for k, v in row.items()} for row in json.loads(out)]
    return list(csv.DictReader(io.StringIO(out)))


@pytest.mark.parametrize("command", ["uir-stats", "avalanche-rounds", "cost-model"])
def test_every_format_prints_the_same_table(capsys, tmp_path, pool32_file, command):
    if command == "uir-stats":
        _, uir, _ = enrolled_device(capsys, tmp_path, pool32_file, pairs=2)
        argv = ["uir-stats", "--uir", uir]
    elif command == "avalanche-rounds":
        argv = ["avalanche-rounds", "--from", "1", "--to", "2", "--sucs", "2",
                "--trials", "3", "--pool", pool32_file]
    else:
        argv = ["cost-model", "--grid"]
    tables = []
    for fmt in ("plain", "csv", "json"):
        rc, out, _ = run(capsys, *argv, "--format", fmt)
        assert rc == 0
        tables.append(_parse_table(fmt, out))
    assert tables[0]
    assert tables[0] == tables[1] == tables[2]


def test_bound_report_json(capsys, pool32_file):
    rc, out, _ = run(capsys, "bound-report", "--count", "5",
                     "--pool", pool32_file, "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["bound"] == 2 ** -4
    assert 0.0 <= payload["frac_diff_exceeding"] <= 1.0
    assert 0.0 <= payload["frac_lin_exceeding"] <= 1.0


def test_bound_report_csv_output(capsys, tmp_path, pool32_file):
    out_file = tmp_path / "bounds.csv"
    rc, _, _ = run(capsys, "bound-report", "--count", "4", "--pool", pool32_file,
                   "--out", str(out_file))
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "index,max_diff_prob,max_lin_prob"
    assert len(lines) == 5
    sidecar = json.loads(out_file.with_suffix(".json").read_text())
    assert sidecar["count"] == 4
    assert sidecar["csv"] == str(out_file)


@pytest.mark.parametrize(
    "argv",
    [["profile", "--sbox", SERPENT_S0_HEX], ["cardinality", "--r", "3", "--set-size", "256"]],
)
def test_a_closed_stdout_exits_one_without_a_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "sucsim.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()  # the reader is gone before the command prints
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 1
    assert "Traceback" not in err


def test_importing_the_cli_loads_no_scipy():
    # the chi-square fit is closed-form, so no command pays scipy's import
    code = "import sys, sucsim.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# networked authority service

@contextlib.contextmanager
def _served(uir_dir, enroll_pairs):
    """Run serve-ta in a subprocess for the with-block; yields its port."""
    with subprocess.Popen(
        [sys.executable, "-u", "-m", "sucsim.cli", "serve-ta",
         "--listen", "127.0.0.1:0", "--uir", uir_dir,
         "--enroll-pairs", str(enroll_pairs), "--seed", "11",
         "--timeout", "5"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:  # leaving it closes the pipe and reaps the process
        try:
            line_holder = {}

            def _read():
                line_holder["line"] = proc.stderr.readline()

            reader = threading.Thread(target=_read, daemon=True)
            reader.start()
            reader.join(timeout=15)
            line = line_holder.get("line", "")
            if "listening on" not in line:
                raise RuntimeError(f"service did not start: {line!r}")
            yield int(line.rsplit(":", 1)[1])
        finally:
            proc.terminate()


@pytest.mark.parametrize(
    "argv",
    [
        ["serve-ta", "--listen", "127.0.0.1:0", "--enroll-pairs", "0"],
        ["serve-ta", "--listen", "127.0.0.1:0", "--enroll-pairs", "70000"],
        ["serve-ta", "--listen", "127.0.0.1:99999"],
        ["agent", "--device", "nowhere/dev01", "--connect", "127.0.0.1:99999"],
        *(
            ["serve-ta", "--listen", "127.0.0.1:0", "--timeout", t]
            for t in ("0", "-1", "nan", "inf")
        ),
        *(
            ["agent", "--device", "nowhere/dev01", "--connect", "127.0.0.1:1",
             "--timeout", t]
            for t in ("0", "-1", "nan", "inf")
        ),
        *(
            ["gen-pool", "--count", "1", "--out", "nowhere/x.pool", "--seed", seed]
            for seed in ("-1", str(2**128))
        ),
        ["gen-pool", "--count", "3000000", "--out", "nowhere/x.pool"],
    ],
)
def test_service_and_agent_usage_errors(capsys, tmp_path, monkeypatch, argv):
    def started(service):
        service.stop()
        pytest.fail("the service started")

    monkeypatch.setattr(netlink.TaService, "serve_forever", started)
    if argv[0] == "serve-ta":
        argv = argv + ["--uir", str(tmp_path / "uir")]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("usage error:")


def test_agent_against_served_authority(capsys, tmp_path, pool32_file):
    prefix = str(tmp_path / "netdev")
    uir = str(tmp_path / "uir")
    run(capsys, "gen-pool", "--count", "8", "--seed", "7",
        "--out", str(tmp_path / "agentpool.bin"))
    run(capsys, "personalize", "--device", prefix,
        "--pool", str(tmp_path / "agentpool.bin"), "--seed", "12")
    rc, out, _ = run(capsys, "boot", "--device", prefix)
    assert rc == 0

    with _served(uir, enroll_pairs=4) as port:
        # First contact enrolls; the next sessions each burn one pair.
        rc, out, _ = run(capsys, "agent", "--device", prefix,
                         "--connect", f"127.0.0.1:{port}")
        assert rc == 0
        assert "enrolled 4 pairs" in out

        rc, out, _ = run(capsys, "agent", "--device", prefix,
                         "--connect", f"127.0.0.1:{port}", "--repeat", "2")
        assert rc == 0
        assert out.strip().splitlines() == ["accepted", "accepted"]

        rc, out, _ = run(capsys, "agent", "--device", prefix,
                         "--connect", f"127.0.0.1:{port}", "--repeat", "3")
        assert rc == 1
        assert out.strip().splitlines() == ["accepted", "accepted", "exhausted"]

    rc, out, _ = run(capsys, "uir-stats", "--uir", uir)
    assert rc == 0
    assert "netdev,4,4,0" in out


def test_an_unbootable_agent_reaches_the_service_and_uses_a_pair(
    capsys, tmp_path, pool32_file
):
    prefix = str(tmp_path / "netdev")
    uir = str(tmp_path / "uir")
    run(capsys, "personalize", "--device", prefix, "--pool", pool32_file,
        "--seed", "12")
    with _served(uir, enroll_pairs=2) as port:
        rc, out, _ = run(capsys, "agent", "--device", prefix,
                         "--connect", f"127.0.0.1:{port}")
        assert (rc, out) == (0, "enrolled 2 pairs\n")

        run(capsys, "tamper", "--device", prefix, "--byte", "2")
        rc, out, err = run(capsys, "agent", "--device", prefix,
                           "--connect", f"127.0.0.1:{port}")
        assert rc == 1
        assert err.startswith("boot failed: envm record invalid")
        assert out == "error: device not initialized\n"

    rc, out, _ = run(capsys, "uir-stats", "--uir", uir)
    assert rc == 0
    assert "netdev,2,1,1" in out
