import io
import json
import multiprocessing
import os

import pytest

import mixedcages.search as search_module
from mixedcages.cli import run


def cli(args, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(args, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def g30_matrix():
    code, out, _ = cli(["build", "g30"])
    assert code == 0
    return out


def test_bounds_human():
    code, out, _ = cli(["bounds", "--r", "3", "--g", "6"])
    assert code == 0
    assert "ahm bound f(3,1,6) >= 30" in out


def test_bounds_json():
    code, out, _ = cli(["bounds", "--r", "6", "--g", "6", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ahm"] == 90
    assert payload["moore"][0] == [0, 1]
    assert payload["moore"][2] == [2, 37]


def test_build_pipe_verify(g30_matrix):
    code, out, _ = cli(
        ["verify", "--r", "3", "--z", "1", "--g", "6", "-"],
        stdin_text=g30_matrix,
    )
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_fail_is_exit_one(g30_matrix):
    code, out, _ = cli(
        ["verify", "--r", "4", "--z", "1", "--g", "6", "-"],
        stdin_text=g30_matrix,
    )
    assert code == 1
    assert out.strip().endswith("FAIL")


def test_verify_json(g30_matrix):
    code, out, _ = cli(
        ["verify", "--r", "3", "--z", "1", "--g", "6", "-", "--json"],
        stdin_text=g30_matrix,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["order"] == 30
    assert payload["regular"] == [3, 1]
    assert payload["girth"] == 6
    assert len(payload["girth_witness"]["steps"]) == 6


def test_build_dot(g30_matrix):
    code, out, _ = cli(["build", "g30", "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")


def test_build_json():
    code, out, _ = cli(["build", "g30", "--json"])
    payload = json.loads(out)
    assert payload["n"] == 30 and payload["edges"] == 45 and payload["arcs"] == 30
    assert payload["matrix"].count("\n") == 29


def test_girth_human():
    code, out, _ = cli(["girth", "-"], stdin_text="0 1\n1 0\n")
    assert code == 0 and "infinite" in out
    code, out, _ = cli(["girth", "-"], stdin_text="0 1\n1 1 0\n")
    assert code == 3  # ragged matrix is an I/O-class failure


def test_girth_json(g30_matrix):
    code, out, _ = cli(["girth", "-", "--json"], stdin_text=g30_matrix)
    payload = json.loads(out)
    assert payload["girth"] == 6
    assert len(payload["witness"]["vertices"]) == 7


def test_aut_json(g30_matrix):
    code, out, _ = cli(["aut", "-", "--json"], stdin_text=g30_matrix)
    payload = json.loads(out)
    assert payload["order"] == 20
    assert payload["fingerprint"]["abelian"] is True
    assert payload["fingerprint"]["max_element_order"] == 10
    assert payload["fingerprint"]["name"] == "Z2 x Z10"


def test_iso_files(tmp_path, g30_matrix):
    a = tmp_path / "a.txt"
    a.write_text(g30_matrix)
    code, out, _ = cli(["iso", str(a), str(a)])
    assert code == 0 and "isomorphic: yes" in out
    b = tmp_path / "b.txt"
    b.write_text("0 1\n1 0\n")
    code, out, _ = cli(["iso", str(a), str(b)])
    assert code == 1 and "isomorphic: no" in out


def test_iso_json_witness(tmp_path, g30_matrix):
    a = tmp_path / "a.txt"
    a.write_text(g30_matrix)
    code, out, _ = cli(["iso", str(a), str(a), "--json"])
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert sorted(payload["witness"]["image"]) == list(range(30))


def test_export_round_trip(g30_matrix):
    code, out, _ = cli(["export", "-", "--format", "matrix"], stdin_text=g30_matrix)
    assert code == 0
    assert out.strip() == g30_matrix.strip()
    code, out, _ = cli(["export", "-", "--format", "dot"], stdin_text=g30_matrix)
    arcs = [l for l in out.splitlines() if "->" in l and "dir=none" not in l]
    edges = [l for l in out.splitlines() if "dir=none" in l]
    assert len(arcs) == 30 and len(edges) == 45


def test_header_tolerance(tmp_path):
    f = tmp_path / "with_header.txt"
    f.write_text("order 2\n0 1\n1 0\n")
    code, _, err = cli(["girth", str(f)])
    assert code == 3  # strict by default
    code, out, err = cli(["girth", str(f), "--allow-header"])
    assert code == 0
    assert "note: skipping header line" in err


def test_search_decide():
    code, out, _ = cli(["search", "--r", "1", "--g", "3", "--n", "4"])
    assert code == 0
    assert "status: found" in out


def test_search_exhausted_exit_code():
    code, out, _ = cli(["search", "--r", "2", "--g", "4", "--n", "5"])
    assert code == 1
    assert "status: exhausted" in out


def test_search_enumerate_json():
    code, out, _ = cli(
        ["search", "--r", "1", "--g", "3", "--n", "6", "--enumerate", "--json"]
    )
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert len(payload["witnesses"]) == 3


def test_search_budget_checkpoint_resume(tmp_path):
    cp = tmp_path / "run.checkpoint.json"
    code, out, err = cli(
        ["search", "--r", "3", "--g", "4", "--n", "12", "--enumerate",
         "--budget-nodes", "400", "--checkpoint", str(cp), "--json"]
    )
    assert code == 4
    assert cp.exists()
    assert "checkpoint written" in err
    code, out, err = cli(
        ["search", "--r", "3", "--g", "4", "--n", "12", "--enumerate",
         "--checkpoint", str(cp), "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert len(payload["witnesses"]) == 29
    assert "resuming" in err


@pytest.mark.parametrize("failure", [OSError, KeyboardInterrupt])
def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch, failure):
    cp = tmp_path / "run.checkpoint.json"
    search = ["search", "--r", "3", "--g", "4", "--n", "12", "--enumerate",
              "--checkpoint", str(cp)]
    code, _, _ = cli(search + ["--budget-nodes", "400"])
    assert code == 4
    before = cp.read_bytes()

    def dump_then_fail(obj, fh):
        fh.write(json.dumps(obj)[:100])
        raise failure("write interrupted")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    if failure is OSError:
        code, _, err = cli(search + ["--budget-nodes", "800"])
        assert code == 3
        assert "write interrupted" in err
    else:
        with pytest.raises(failure):
            cli(search + ["--budget-nodes", "800"])
    assert cp.read_bytes() == before
    assert list(tmp_path.iterdir()) == [cp]


def test_search_auto():
    code, out, _ = cli(["search", "--r", "3", "--g", "3", "--auto", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 6
    assert payload["provenance"] == "bound-matched"


def test_usage_errors():
    code, _, err = cli(["search", "--r", "3", "--g", "6"])
    assert code == 2
    code, _, _ = cli(["nonsense"])
    assert code == 2
    code, _, _ = cli([])
    assert code == 2
    code, _, err = cli(
        ["search", "--r", "3", "--g", "6", "--n", "12", "--threads", "0"]
    )
    assert code == 2


def test_threads_budget_checkpoint_resume(tmp_path):
    cp = tmp_path / "run.checkpoint.json"
    search = ["search", "--r", "3", "--g", "5", "--n", "20", "--json"]
    code, _, _ = cli(search + ["--threads", "2", "--budget-nodes", "10",
                               "--checkpoint", str(cp)])
    assert code == 4
    assert cp.exists()
    code, out, err = cli(search + ["--threads", "1", "--checkpoint", str(cp)])
    assert code == 1
    assert "resuming" in err
    code, full, _ = cli(search)
    assert code == 1
    assert json.loads(out)["stats"] == json.loads(full)["stats"]


@pytest.mark.parametrize("flag", [
    ["--checkpoint", "CP"], ["--enumerate"], ["--branch-policy", "lex"],
])
def test_search_auto_rejects_unused_flags(tmp_path, flag):
    flag = [str(tmp_path / "cp.json") if a == "CP" else a for a in flag]
    code, _, err = cli(["search", "--r", "3", "--g", "3", "--auto"] + flag)
    assert code == 2
    assert flag[0] in err
    assert list(tmp_path.iterdir()) == []


def test_search_auto_passes_threads(monkeypatch):
    seen = []
    search_order = search_module.search_order

    def recording(spec, checkpoint=None, workers=1):
        seen.append(workers)
        return search_order(spec, checkpoint, workers)

    monkeypatch.setattr(search_module, "search_order", recording)
    code, out, _ = cli(["search", "--r", "3", "--g", "3", "--auto",
                        "--threads", "2", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == 6
    assert seen and set(seen) == {2}


def _die(job):
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched visit only when forked",
)
def test_dead_worker_is_io_error(monkeypatch):
    monkeypatch.setattr(search_module, "_visit", _die)
    code, out, err = cli(["search", "--r", "3", "--g", "4", "--n", "12",
                          "--threads", "2"])
    assert code == 3
    assert err.startswith("error:")
    assert "status" not in out


def test_missing_file_is_io_error():
    code, _, err = cli(["girth", "/no/such/file"])
    assert code == 3


def test_threads_search():
    code, out, _ = cli(
        ["search", "--r", "1", "--g", "3", "--n", "6", "--enumerate",
         "--threads", "2", "--json"]
    )
    assert code == 0
    assert len(json.loads(out)["witnesses"]) == 3


def test_version_flag():
    # argparse version action writes to stdout and exits 0
    import contextlib

    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stdout(out):
            run(["--version"])
    assert exc.value.code == 0


def test_checkpoint_flag_mismatch_is_usage_error(tmp_path):
    cp = tmp_path / "cp.json"
    code, _, _ = cli(
        ["search", "--r", "3", "--g", "4", "--n", "12", "--enumerate",
         "--budget-nodes", "400", "--checkpoint", str(cp)]
    )
    assert code == 4
    # resuming under different parameters must be refused, not misused
    code, _, err = cli(
        ["search", "--r", "3", "--g", "4", "--n", "12",
         "--checkpoint", str(cp)]
    )
    assert code == 2
    assert "does not match" in err


def _corrupted_checkpoint(tmp_path, corrupt):
    cp = tmp_path / "cp.json"
    code, _, _ = cli(
        ["search", "--r", "3", "--g", "4", "--n", "12", "--enumerate",
         "--budget-nodes", "400", "--checkpoint", str(cp)]
    )
    assert code == 4
    state = json.loads(cp.read_text())
    active = next(s for s in state["skeletons"]
                  if s["started"] and not s["exhausted"])
    corrupt(state, active)
    cp.write_text(json.dumps(state))
    return cp


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda state, active: active["path"].__setitem__(0, 10_000),
        lambda state, active: state["skeletons"][0].__setitem__(
            "parts", [6, 6]),
    ],
    ids=["path-index", "parts"],
)
def test_corrupt_checkpoint_is_io_error(tmp_path, corrupt):
    cp = _corrupted_checkpoint(tmp_path, corrupt)
    code, out, err = cli(
        ["search", "--r", "3", "--g", "4", "--n", "12", "--enumerate",
         "--checkpoint", str(cp)]
    )
    assert code == 3
    assert "corrupt checkpoint" in err
    assert out == ""


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"{not json", b"[]"], ids=["bytes", "json", "list"]
)
def test_unreadable_checkpoint_is_io_error(tmp_path, content):
    cp = tmp_path / "cp.json"
    cp.write_bytes(content)
    code, _, err = cli(
        ["search", "--r", "3", "--g", "4", "--n", "12", "--enumerate",
         "--checkpoint", str(cp)]
    )
    assert code == 3
    assert "corrupt checkpoint" in err


def test_corrupt_checkpoint_rejected_under_optimize(tmp_path):
    # the checks must not be bare asserts, which python -O strips
    import os
    import subprocess
    import sys
    from pathlib import Path

    cp = _corrupted_checkpoint(
        tmp_path,
        lambda state, active: state["skeletons"][0].__setitem__(
            "parts", [6, 6]),
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mixedcages", "search", "--r", "3",
         "--g", "4", "--n", "12", "--enumerate", "--checkpoint", str(cp)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "corrupt checkpoint" in proc.stderr
