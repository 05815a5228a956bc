import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)


def test_compare_reports_each_differing_array(tmp_path, capsys):
    same = {"nan": np.array([1.0, np.nan]), "text": np.array(["a", "b"])}
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, **same, value=np.zeros(3), width=np.zeros(2), only_a=np.ones(1))
    np.savez(b, **same, value=np.array([0.0, 0.0, 1e-300]),
             width=np.zeros(2, dtype=np.float32), only_b=np.ones(1))
    assert identity.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["differs: only_a", "differs: only_b", "differs: value",
                   "differs: width", "4 of 6 arrays differ"]
    assert identity.main(["compare", str(a), str(a)]) == 0
