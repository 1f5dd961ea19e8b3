"""A pin on the bytes of the reproduced figures: a change to the command-line
front end must leave every file `sarlab reproduce fig3|fig4|fig5` writes,
apart from manifest.json (which records wall times), as it was, byte for
byte, and each manifest must list the figure's files in the order they
were written.

DIGEST was recorded on the code before one run record began to own each
command's output directory, stage timings, written files and manifest.  A
change that moves a byte on purpose records a new digest and says in
CHANGES.md which files moved and why."""

import hashlib
import json

from sarlab import cli

DIGEST = "e2eddc4ce334bfc6aaf7325673e55e46cd5ddcf174d2b83a34aa45dd9a34cf07"

OUTPUTS = {
    "fig3": ["traj.csv", "traj.plt"],
    "fig4": ["traj_sigma0.csv", "traj_sigma085.csv", "traj.plt"],
    "fig5": ["net_leak.json", "net_ca.json", "net_k.json", "embedding.json", "loss.csv",
             "residuals.json", "sweep.csv", "sweep.plt", "certificate.json"],
}


def test_reproduce_writes_the_pinned_bytes(tmp_path):
    cli._calibrated_iapp.cache_clear()  # calibrate for real, whatever ran before
    for fig in OUTPUTS:
        assert cli.main(["reproduce", fig, "--out", str(tmp_path)]) == 0
    for fig, outputs in OUTPUTS.items():
        manifest = json.loads((tmp_path / fig / "manifest.json").read_text())
        assert manifest["outputs"] == outputs, fig
    files = sorted(f for f in tmp_path.rglob("*") if f.is_file() and f.name != "manifest.json")
    assert len(files) == 14
    h = hashlib.sha256()
    for f in files:
        h.update(f.relative_to(tmp_path).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    assert h.hexdigest() == DIGEST
