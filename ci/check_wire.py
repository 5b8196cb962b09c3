#!/usr/bin/env python3
"""Parses what the built binaries print with Python's strict JSON parser.

    python3 ci/check_wire.py [--build build]

Runs every JSON subcommand of tsg_tool on the built-in demo design, then
one request of every kind through `tsg_serve --pipe --demo osc`, plus
requests whose ids hold a raw control byte and a \\u00e9 escape.  Every
output line must load with json.loads (NaN and Infinity rejected), tool
output must be exactly one line, every response must echo its request id,
and a response to a request the tool also answers must embed the tool's
document byte for byte.  `tsg_tool montecarlo --samples 3abc`,
`tsg_serve --pipe --demo osc --quota-rps 5abc` and `... --conn-rps 1e999`
must each exit 1, the daemon with an error naming the flag.  Exit status
0 when every check holds, 1 otherwise; one line per check.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

EDIT_SCRIPT = {"batches": [
    {"label": "slow \"comparator\"", "edits": [{"op": "set_delay", "arc": 6, "delay": "7/2"}]},
    {"label": "illegal short circuit",
     "edits": [{"op": "add_arc", "from": "c+", "to": "a+", "delay": 1}]},
]}

TOOL_COMMANDS = [
    ["analyze"],
    ["sweep"],
    ["montecarlo", "--samples", "16"],
    ["montecarlo", "--samples", "64", "--adaptive"],
    ["criticality", "--samples", "32"],
    ["optimize", "--budget", "2", "--step", "1"],
    ["optimize", "--budget", "2", "--step", "1", "--mode", "statistical", "--target", "9",
     "--samples", "64"],
    ["topk", "--k", "3"],
    ["topk", "--k", "3", "--mode", "statistical", "--samples", "32"],
]

# Requests of every kind, with the tool command whose output the response
# must embed verbatim (None: no tool counterpart, or not comparable).
DAEMON_REQUESTS = [
    ({"kind": "analyze"}, ["analyze"]),
    ({"kind": "sweep"}, ["sweep"]),
    ({"kind": "montecarlo", "options": {"samples": 16}}, ["montecarlo", "--samples", "16"]),
    ({"kind": "montecarlo", "options": {"samples": 64, "adaptive": True}}, None),
    ({"kind": "criticality", "options": {"samples": 32}}, None),
    ({"kind": "optimize", "options": {"budget": "2", "step": "1"}},
     ["optimize", "--budget", "2", "--step", "1"]),
    ({"kind": "report_topk", "options": {"k": 3}}, ["topk", "--k", "3"]),
    ({"kind": "edit", "edits": EDIT_SCRIPT}, None),
    ({"kind": "stats"}, None),
    ({"kind": "health"}, None),
]


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-standard constant {constant}")
    return json.loads(text, parse_constant=reject)


class Checker:
    def __init__(self):
        self.failures = 0

    def check(self, ok, label, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
        if not ok:
            self.failures += 1
        return ok


def run(cmd, stdin=None):
    return subprocess.run(cmd, input=stdin, capture_output=True, timeout=300)


def check_tool(c, tool, script_path):
    outputs = {}
    for args in TOOL_COMMANDS + [["edit", "--script", script_path]]:
        label = "tsg_tool " + " ".join(args)
        proc = run([tool] + args)
        if not c.check(proc.returncode == 0, label, proc.stderr.decode(errors="replace")):
            continue
        text = proc.stdout.decode("utf-8")
        if not c.check(text.endswith("\n") and text.count("\n") == 1, label + " is one line",
                       repr(text[-40:])):
            continue
        try:
            strict_loads(text)
        except ValueError as e:
            c.check(False, label + " parses", str(e))
            continue
        c.check(True, label + " parses")
        outputs[tuple(args)] = text[:-1]
    proc = run([tool, "montecarlo", "--samples", "3abc"])
    c.check(proc.returncode == 1, "tsg_tool montecarlo --samples 3abc exits 1",
            f"exit {proc.returncode}")
    return outputs


def check_daemon_flags(c, serve):
    for flag, value in (("--quota-rps", "5abc"), ("--conn-rps", "1e999")):
        proc = run([serve, "--pipe", "--demo", "osc", flag, value], b"")
        err = proc.stderr.decode(errors="replace")
        c.check(proc.returncode == 1 and flag in err,
                f"tsg_serve {flag} {value} exits 1 naming the flag",
                f"exit {proc.returncode}: {err.strip()}")


def check_daemon(c, serve, tool_outputs):
    lines = []
    expected = []
    for i, (body, tool_args) in enumerate(DAEMON_REQUESTS):
        request = {"api_version": 1, "id": f"r{i}-{body['kind']}", "design": {"id": "osc"}}
        request.update(body)
        lines.append(json.dumps(request))
        expected.append((request["id"], tool_args))
    # Raw bytes on purpose: a 0x01 inside the id string, and a \u escape
    # that must decode to U+00E9.
    lines.append('{"api_version": 1, "kind": "analyze", "design": {"id": "osc"}, '
                 '"id": "raw\x01ctl"}')
    expected.append(("raw\x01ctl", None))
    lines.append('{"api_version": 1, "kind": "analyze", "design": {"id": "osc"}, '
                 '"id": "caf\\u00e9"}')
    expected.append(("café", None))

    proc = run([serve, "--pipe", "--demo", "osc"], ("\n".join(lines) + "\n").encode("utf-8"))
    if not c.check(proc.returncode == 0, "tsg_serve --pipe exits 0",
                   proc.stderr.decode(errors="replace")):
        return
    responses = proc.stdout.decode("utf-8").splitlines()
    c.check(len(responses) == len(expected), "one response line per request",
            f"{len(responses)} lines for {len(expected)} requests")
    for line, (rid, tool_args) in zip(responses, expected):
        label = f"response {rid!r}"
        try:
            doc = strict_loads(line)
        except ValueError as e:
            c.check(False, label + " parses", str(e))
            continue
        c.check(doc.get("id") == rid, label + " echoes its id", repr(doc.get("id")))
        if not c.check(doc.get("ok") is True, label + " is ok", json.dumps(doc.get("error"))):
            continue
        if tool_args is not None and tuple(tool_args) in tool_outputs:
            c.check(line.endswith('"payload": ' + tool_outputs[tuple(tool_args)] + "}"),
                    label + " embeds the tool's document byte for byte")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build", help="directory holding the binaries")
    args = parser.parse_args()
    build = Path(args.build)
    c = Checker()
    with tempfile.TemporaryDirectory() as tmp:
        script_path = str(Path(tmp) / "edits.json")
        Path(script_path).write_text(json.dumps(EDIT_SCRIPT))
        tool_outputs = check_tool(c, str(build / "tsg_tool"), script_path)
    check_daemon(c, str(build / "tsg_serve"), tool_outputs)
    check_daemon_flags(c, str(build / "tsg_serve"))
    print(f"{c.failures} failure(s)")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
