"""The three benchmark workloads and the oracle that judges their operations.

Each workload has two steps.  ``inputs(seed, workdir)`` makes the seeded
inputs and their expected answers without touching orbsemi; it is not part
of set-up time.  ``setup(orb, inputs)`` builds the program-side objects
(instances, configs, argv lists) from a freshly imported orbsemi and returns
the fixed list of operations; it is timed as set-up.

An operation is an ``Op``: ``run()`` calls into the program and returns its
outcome, ``judge(outcome)`` returns ``(verdict, text)``.  ``text`` is the
canonical output that goes into the report digest.  ``verdict`` is ``"ok"``
or ``"fail"``; every failure counts in ``failed`` and makes ``correct`` false.

The known answers do not come from the code under test:

- Tab(G) is an orbital semilattice (the paper's theorem), so every axiom,
  derived, labeling and embedding check on it passes and none is vacuous;
- each mutant breaks its target axiom by construction, so that check fails;
- no check of ``embed`` on a Tab(G) may report FAIL;
- every ``eval`` output, parsed back, equals the naive evaluator in
  ``evalgen``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import evalgen

GROUND3 = ("a", "b", "c")

#: (argv tail) for each represent-pipeline operation: 26, 60 and 120 terms.
#: Each run keeps the whole signature.  A symbol or vars cap that cuts it gives
#: false L3 FAILs at some seeds (ROADMAP item 4): ``--ground a,b,c`` at default
#: caps fails at most seeds, with ``--caps vars=2,symbols=120`` at seed 23.
#: Depth and stratum caps are safe, since checks run on the witness-closed
#: fragment below the top stratum.  The 518-term a,b,c run (about 177 s) is
#: too slow to repeat.
EMBED_RUNS = (
    ("--ground", "a", "--depth", "4"),
    ("--ground", "a,b", "--caps", "symbols=300"),
    ("--ground", "a", "--depth", "5", "--caps", "stratum=120"),
)

EVAL_REQUESTS = 400


@dataclass
class Op:
    name: str
    kind: str
    run: Callable
    judge: Callable


def _report_text(reports) -> str:
    return json.dumps([r.to_json() for r in reports], sort_keys=True)


def _expect(reports, want_pass: bool):
    """ok iff every report has the expected verdict and none is vacuous."""
    for r in reports:
        if r.passed != want_pass or (want_pass and r.vacuous):
            return "fail"
    return "ok"


def _check_op(name, kind, call, want_pass):
    def judge(reports):
        reports = reports if isinstance(reports, list) else [reports]
        return _expect(reports, want_pass), _report_text(reports)
    return Op(name, kind, call, judge)


def _cli_call(cli, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    return run


# ---------------------------------------------------------------------------
# check-suite: library calls on Tab({a,b,c})


def check_suite_inputs(seed, workdir):
    return {"seed": seed}


def check_suite_setup(orb, inputs):
    seed = inputs["seed"]
    alg = orb.TableAlgebra(set(GROUND3))
    cfg_axiom = orb.SampleConfig(cases=800, seed=seed)
    cfg = orb.SampleConfig(cases=400, seed=seed)
    orbital, labeling = orb.orbital, orb.labeling
    ops = []
    for a in orbital.AXIOM_IDS:
        ops.append(_check_op(f"axiom/{a}", "axiom",
                             lambda a=a: orbital.check_axiom(alg, a, cfg_axiom), True))
    for p in orbital.DERIVED_IDS:
        ops.append(_check_op(f"derived/{p}", "derived",
                             lambda p=p: orbital.check_derived(alg, p, cfg), True))
    for a, m in orb.mutants.TARGETS.items():
        mutant = orb.mutants.make_mutant(m, alg)
        ops.append(_check_op(f"mutant/{m}/{a}", "mutant",
                             lambda mutant=mutant, a=a: orbital.check_axiom(mutant, a, cfg),
                             False))
    # a fresh labeling per call: its evaluation cache must not carry over
    ops.append(_check_op("labeling/full", "labeling", lambda: labeling.check_labeling(
        labeling.singleton_labeling(alg), "full", cfg), True))
    ops.append(_check_op("embedding", "embedding", lambda: labeling.check_embedding(
        labeling.singleton_labeling(alg), cfg), True))
    return ops


# ---------------------------------------------------------------------------
# represent-pipeline: in-process `orbsemi embed`


def represent_inputs(seed, workdir):
    return {"argvs": [("embed", *tail, "--seed", str(seed)) for tail in EMBED_RUNS]}


def _judge_embed(outcome):
    code, out, err = outcome
    text = f"exit={code}\n{out}"
    try:
        report = json.loads(out)
    except ValueError:
        return "fail", text + err
    if code == 0 and report.get("status") == "pass" and not report.get("error"):
        return "ok", text
    return "fail", text


def represent_setup(orb, inputs):
    cli = orb.cli
    return [Op(" ".join(argv[:-2]), "embed", _cli_call(cli, argv), _judge_embed)
            for argv in inputs["argvs"]]


# ---------------------------------------------------------------------------
# eval-requests: closed loop, one client, in-process `orbsemi eval`


def eval_inputs(seed, workdir):
    tables = evalgen.make_tables(random.Random(f"tables:{seed}"))
    requests = evalgen.make_requests(random.Random(f"requests:{seed}"), tables,
                                     EVAL_REQUESTS)
    return {"tables": tables, "requests": requests, "dir": Path(workdir) / "tables"}


def _judge_eval(req):
    def judge(outcome):
        code, out, err = outcome
        text = f"exit={code}\n{out}"
        if code != 0:
            return "fail", text + err
        try:
            got = evalgen.parse_output(req.fmt, out)
        except (ValueError, KeyError, IndexError):
            return "fail", text
        return ("ok" if evalgen.digest(got) == req.expected else "fail"), text
    return judge


def eval_setup(orb, inputs):
    paths = evalgen.write_tables(inputs["tables"], inputs["dir"])
    ground = ",".join(evalgen.ATOMS)
    ops = []
    for i, req in enumerate(inputs["requests"]):
        argv = ("eval", req.text, "--tables", *(paths[n] for n in req.tables),
                "--ground", ground, "--format", req.fmt)
        ops.append(Op(f"eval/{i}", "eval", _cli_call(orb.cli, argv), _judge_eval(req)))
    return ops


WORKLOADS = {
    "check-suite": (check_suite_inputs, check_suite_setup),
    "represent-pipeline": (represent_inputs, represent_setup),
    "eval-requests": (eval_inputs, eval_setup),
}
