"""Seeded job lists for the three workloads.

A workload is an endless sequence of rounds.  Every round holds the same
number of jobs of each kind, drawn from the seed, so a run of whole rounds has
the same mix whatever the seed and however fast the program is.  Each job
carries a check that compares its outcome with an answer from ``oracles``.

In-process jobs call k3auto through module attributes (``ff.verify_morphism``
rather than a name bound at import), so the traced run can wrap them.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass
from itertools import count
from math import gcd
from pathlib import Path
from typing import Callable

import oracles

HERE = Path(__file__).resolve().parent
SURFACE = "src/k3auto/fixtures/order16_surface.txt"
GRAPH = "src/k3auto/fixtures/order16_graph.txt"


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    # Returns None when the outcome matches the oracle, else a short reason.
    check: Callable[[object], "str | None"]


def _mismatch(got, want) -> "str | None":
    return None if got == want else f"got {got!r}, want {want!r}"


# -- maps: cyclotomic -> polyring -> funfield ----------------------------------

MAP_NAMES = ("sigma", "sigma_alt", "tau")
# Per round: the fixture maps and nine non-morphism scalings are the
# deterministic body.  tau is the cheapest fixture map, so with nine
# scalings below its three checks the median job is the middle tau
# check-map; the cheap scalings keep a run above 100 jobs when the host is
# slow; the translations and sigma_alt make the tail.
FIXTURE_REPEATS = {"sigma": 2, "sigma_alt": 2, "tau": 3}
SCALINGS_PER_ROUND = 9
WORDS_PER_ROUND = 2
# Constant sections (x0, y0) on models with B constant and A = a t or A = a,
# one of each stratum per round: x0 = 0 with A = a t, x0 != 0 with A = a,
# x0 = 0 with A = a.  Here these cost 0.3-1.1 s per job; A = a t + b with
# b != 0 costs about 5 s, and deg A = 2 or x0 != 0 with deg A = 1 costs 10-30 s.
TRANSLATION_STRATA = ((0, 1), (1, 0), (0, 0))


def maps_rounds(seed: int):
    from k3auto import funfield as ff
    from k3auto.fixtures import load_bundle
    from k3auto.polyring import RationalFunction, UniPoly
    from k3auto.surface import WeierstrassModel

    bundle = load_bundle()
    model, field = bundle.model, bundle.model.field
    rng = random.Random(seed)

    def check_map(m) -> dict:
        # The sequence cli.cmd_check_map runs, reduced to comparable values.
        if not ff.verify_morphism(m):
            return {"well_defined": False, "residual_zero": ff.morphism_residual(m).is_zero()}
        scalar = ff.ambient_scalar(m)
        factor = ff.omega_factor(m)
        order = ff.map_order(m, 64)
        factor_order = factor.multiplicative_order(64)
        return {
            "well_defined": True,
            "ambient_scalar": None if scalar is None else scalar.as_zeta_power(),
            "omega_factor": factor.as_zeta_power(),
            "omega_order": factor_order,
            "map_order": order,
            "primitive": factor_order == order,
            "symplectic": factor == field.one(),
        }

    def word_job(kind, word):
        want = oracles.expected_check_map(*oracles.word_exponents(word))

        def run():
            m = bundle.maps[word[0]]
            for name in word[1:]:
                m = ff.compose(m, bundle.maps[name])
            return check_map(m)

        return Job(kind, run, lambda got: _mismatch(got, want))

    def scaling_job(a, b, c):
        def run():
            m = ff.SurfaceMap.scaling(model, field.zeta(a), field.zeta(b), field.zeta(c))
            return check_map(m)

        want = {"well_defined": False, "residual_zero": False}
        return Job("scaling_non_morphism", run, lambda got: _mismatch(got, want))

    def translation_job(x0, y0, a_coeffs):
        b_const = y0 * y0 - x0 ** 3

        def run():
            A = UniPoly.from_int_coeffs(field, a_coeffs)
            B = UniPoly.constant(field, b_const) - A * x0
            mdl = WeierstrassModel(field, A, B)
            section = ff.Section(
                RationalFunction.constant(field, x0), RationalFunction.constant(field, y0)
            )
            tr = ff.translation_map(mdl, section)
            return {
                "morphism": ff.verify_morphism(tr),
                "omega": ff.omega_factor(tr).as_zeta_power(),
            }

        want = {"morphism": True, "omega": 0}
        return Job("translation", run, lambda got: _mismatch(got, want))

    def draw_translation(stratum):
        zero_x, deg_a = stratum
        while True:
            x0 = 0 if zero_x == 0 else rng.choice((-2, -1, 1, 2))
            y0 = rng.choice((-2, -1, 1, 2))
            # Constant term first; a linear A has no constant term.
            a_coeffs = [0] * deg_a + [rng.choice((-2, -1, 1, 2))]
            # B is constant; with A constant the model degenerates when
            # 4 A^3 + 27 B^2 = 0.
            b_const = y0 * y0 - x0 ** 3 - a_coeffs[0] * x0
            if deg_a == 1 or 4 * a_coeffs[0] ** 3 + 27 * b_const ** 2 != 0:
                return translation_job(x0, y0, a_coeffs)

    def draw_scaling():
        while True:
            a, b, c = (rng.randrange(16) for _ in range(3))
            if not oracles.scaling_is_morphism(a, b, c):
                return scaling_job(a, b, c)

    def draw_word():
        # Words for sigma^a tau with a even: maps that involve the translation
        # and cost 0.3-0.8 s here, between the fixture maps and the
        # translation tail.  Words with a odd and b = 1 cost up to 1.3 s.
        while True:
            word = [rng.choice(MAP_NAMES) for _ in range(rng.randint(2, 4))]
            a, b = oracles.word_exponents(word)
            if a % 2 == 0 and b == 1:
                return word_job("word", word)

    for _ in count():
        jobs = [
            word_job("fixture_map", [name])
            for name, repeats in FIXTURE_REPEATS.items() for _ in range(repeats)
        ]
        jobs += [draw_word() for _ in range(WORDS_PER_ROUND)]
        jobs += [draw_scaling() for _ in range(SCALINGS_PER_ROUND)]
        jobs += [draw_translation(stratum) for stratum in TRANSLATION_STRATA]
        rng.shuffle(jobs)
        yield jobs


# -- graphs_lattices: rigidity and lattice, integers and Fraction only --------

# Lattice jobs per round.  The seed orders the summands of the permuted
# shapes, which moves their cost by up to 2x, so the median job of the
# workload is the README's `lattice expr U(2)+D4+E8` discriminant, three per
# round in its documented order, with every seeded shape cheaper (A2, A1) or
# dearer (D6, D4) than it; the 90th percentile is an n = 8 enumeration.
GENUS_SHAPES = ("U(2)+A1+A1+A1", "U+D6+A1+A1", "U(2)+D4+D4")
README_DISCRIMINANTS = 3


def graphs_rounds(seed: int):
    from k3auto import files, lattice, rigidity
    from k3auto.fixtures import fixture_text, load_bundle

    config = load_bundle().config
    graph_text = fixture_text("order16_graph.txt")
    vertices, edges, perms = oracles.parse_graph(graph_text)
    auts = oracles.automorphisms(vertices, edges)
    aut_keys = {tuple(sorted(g.items())) for g in auts}
    orders = {"sigma": 16, "sigma_alt": 16, "tau": 2}
    identity = {v: v for v in vertices}
    rng = random.Random(seed)

    def action_facts(action):
        return oracles.action_data(
            action.perm, action.n, action.c, action.weights, action.pointwise, action.free_points
        )

    def enumerate_job(n, c, census_filter):
        def run():
            return rigidity.enumerate_actions(config, n, c, census_filter)

        def check(classes):
            keys = []
            for action in classes:
                try:
                    action.validate()
                except rigidity.RigidityError as err:
                    return f"returned action fails validation: {err}"
                if tuple(sorted(action.perm.items())) not in aut_keys:
                    return "returned permutation is not a graph automorphism"
                if (action.n, action.c) != (n, c % n):
                    return f"returned (n, c) = {(action.n, action.c)}"
                keys.append(action_facts(action))
            if oracles.has_conjugate_pair(keys, auts):
                return "two returned actions are conjugate"
            if (n, c, census_filter) == (16, 1, (10, 1)):
                if len(classes) != 1:
                    return f"{len(classes)} classes, want exactly one"
                a = classes[0]
                if oracles.action_order(a.n, a.c, a.perm, a.weights.values()) != 16:
                    return "the filtered class does not have order 16"
            return None

        kind = "enumerate_filtered" if census_filter else "enumerate"
        return Job(kind, run, check)

    def request_job(kind, first, second=None, m=None):
        # A CLI request: load the graph file text, resolve names, run, census.
        def resolve(actions, name):
            if name.startswith("inv("):
                return rigidity.inverse_action(actions[name[4:-1]])
            return actions[name]

        def run():
            _config, actions = files.load_graph_text(graph_text)
            if kind == "census":
                action = resolve(actions, first)
            elif kind == "power":
                action = rigidity.power(resolve(actions, first), m)
            else:
                action = rigidity.compose_actions(
                    resolve(actions, first), resolve(actions, second)
                )
            cen = rigidity.census(action)
            return action.perm, action.n, (cen.N, cen.k)

        def perm_of(name):
            if name.startswith("inv("):
                p = perms[name[4:-1]]
                return {w: v for v, w in p.items()}
            return perms[name]

        trivial = (1, (0, len(vertices)))  # order and census of the identity
        if kind == "census":
            want_perm, want_n = perms[first], orders[first]
            known = {"sigma": (10, 1), "tau": (8, 0)}.get(first)
        elif kind == "power":
            n = orders[first]
            want_perm, want_n = oracles.perm_power(perms[first], m), n // gcd(n, m)
            known = trivial[1] if m % n == 0 else None
        else:
            # A composite keeps the lcm of the two orders as its n.
            want_perm = oracles.perm_compose(perm_of(first), perm_of(second))
            want_n = None
            known = None
            if second == f"inv({first})":
                want_perm, known = identity, trivial[1]
            elif (first, second) == ("sigma", "inv(sigma_alt)"):
                known = (8, 0)

        def check(got):
            perm, n, cen = got
            if perm != want_perm:
                return "permutation differs from the composed cycles"
            if want_n is not None and n != want_n:
                return f"order {n}, want {want_n}"
            if known is not None and cen != known:
                return f"census {cen}, want {known}"
            return None

        return Job(kind, run, check)

    def shuffled(shape: str) -> list[str]:
        names = shape.split("+")
        rng.shuffle(names)
        return names

    def genus_job(kind, first, second, want):
        def run():
            return lattice.genus_equal(
                files.parse_lattice_expression(first), files.parse_lattice_expression(second)
            )

        return Job(kind, run, lambda got: _mismatch(got, want))

    def discriminant_job(names):
        det = oracles.sum_det(names)

        def run():
            G = files.parse_lattice_expression("+".join(names))
            return lattice.discriminant_data(G).invariant_factors

        def check(factors):
            product = 1
            for i, d in enumerate(factors):
                product *= d
                if i and d % factors[i - 1]:
                    return f"invariant factors {factors} do not form a divisor chain"
            return _mismatch(product, det)

        return Job("discriminant", run, check)

    for r in count():
        # Odd c: the costliest volume exponents, within 5% of each other.
        jobs = [
            enumerate_job(16, rng.randrange(1, 16, 2), None),
            enumerate_job(8, rng.randrange(1, 8, 2), None),
            # The first round runs the fixture command.
            enumerate_job(16, 1 if r == 0 else rng.randrange(1, 16, 2), (10, 1)),
        ]
        a = rng.choice(MAP_NAMES)
        jobs += [
            request_job("census", rng.choice(MAP_NAMES)),
            request_job("power", a, m=rng.randint(1, 2 * orders[a])),
            request_job("compose_inverse", a, f"inv({a})"),
            request_job(
                "compose",
                rng.choice(MAP_NAMES),
                rng.choice(MAP_NAMES + tuple(f"inv({x})" for x in MAP_NAMES)),
            ),
        ]
        jobs.append(genus_job("genus_readme", "U+D8+D4", "U(2)+E8+D4", True))
        jobs += [discriminant_job(["U(2)", "D4", "E8"]) for _ in range(README_DISCRIMINANTS)]
        jobs.append(discriminant_job(shuffled("U+A2+A2")))
        for shape in GENUS_SHAPES:
            jobs.append(genus_job(
                "genus_permuted", "+".join(shuffled(shape)), "+".join(shuffled(shape)), True
            ))
        names = shuffled(rng.choice(GENUS_SHAPES))
        jobs.append(genus_job("genus_signature", "+".join(names), "+".join(names + ["A1"]), False))
        rng.shuffle(jobs)
        yield jobs


# -- cli: one k3auto process per job -------------------------------------------

CLI_TIMEOUT_S = 3.0  # about three times the slowest fixture command
CLASSIFY_PER_ROUND = 10
DEFECTS_PER_ROUND = 4
# The ROADMAP item 4 defects that fail at the seed: defect-edit job kind ->
# the class its failure is tagged with.  Any other failure is unexpected.
KNOWN_DEFECTS = {
    "defect_zero_denominator": "traceback",
    "defect_zero_order": "traceback",
    "defect_non_integer_order": "missing_line",
    "defect_oversized_exponent": "timeout",
}


@dataclass
class Outcome:
    code: "int | None"
    out: str
    err: str
    timed_out: bool


def child_env(root: Path) -> dict:
    """Environment of a k3auto child process: the checkout's sources, nothing else."""
    return {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin", "LC_ALL": "C.UTF-8"}


def run_subprocess(root: Path, argv) -> Outcome:
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "k3auto.cli", *argv],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        return Outcome(None, err.stdout or "", err.stderr or "", True)
    return Outcome(proc.returncode, proc.stdout, proc.stderr, False)


class _JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so cli.main's handlers pass it on."""


def run_in_process(argv, timeout: float = CLI_TIMEOUT_S) -> Outcome:
    """Send argv through k3auto.cli.main in this process, as the shell would."""
    from k3auto import cli

    out, err = io.StringIO(), io.StringIO()

    def on_alarm(_signum, _frame):
        raise _JobTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    code, timed_out = None, False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error ends the process with a traceback
                traceback.print_exc()
                code = 1
    except _JobTimeout:
        timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(code, out.getvalue(), err.getvalue(), timed_out)


def _check_cli(got: Outcome, code: int, stdout=None, line=None, parse=None) -> "str | None":
    """None, or a reason that starts with the failure's class."""
    if got.timed_out:
        return f"timeout: no exit within {CLI_TIMEOUT_S} s"
    if "Traceback (most recent call last)" in got.err:
        return "traceback: " + got.err.strip().splitlines()[-1]
    if got.code != code:
        return f"wrong_exit: exit {got.code}, want {code}: {got.err.strip()[:120]}"
    if code == 2 and not got.err.startswith("input error:"):
        return f"wrong_output: stderr {got.err.strip()[:120]!r}"
    if line is not None and f"line {line}:" not in got.err:
        return f"missing_line: want line {line}: {got.err.strip()[:120]}"
    if stdout is not None and got.out != stdout:
        return "wrong_output: stdout differs from the golden bytes"
    if parse is not None:
        return parse(got.out)
    return None


def known_defect(job: Job, reason: str) -> bool:
    """A failure the ROADMAP lists: the seed's defect class on its edit kind."""
    return KNOWN_DEFECTS.get(job.kind) == reason.split(":", 1)[0]


def _edit_line(text: str, block: "str | None", key: str, value: str) -> tuple[str, int]:
    """Replace `key = ...` inside [block] (or the top level); return text and line."""
    lines = text.splitlines()
    current = None
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1]
        elif current == block and stripped.split("=", 1)[0].strip() == key:
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n", i + 1
    raise KeyError((block, key))


def _classify_parse(expected: dict, as_json: bool):
    def parse(out: str) -> "str | None":
        got: dict[tuple, int] = {}
        if as_json:
            data = json.loads(out)
            total, k3 = data["euler_total"], data["is_k3"]
            for f in data["fibers"]:
                orders = tuple(
                    "inf" if v is None else str(v) for v in (f["vA"], f["vB"], f["vDelta"])
                )
                key = (f["type"], *orders)
                got[key] = got.get(key, 0) + f["multiplicity"]
        else:
            lines = out.splitlines()
            total = int(lines[-2].split("=")[1])
            k3 = lines[-1] == "is_k3 = yes"
            for row in lines[:-2]:
                _place, ftype, orders, _euler, mult = (p.strip() for p in row.split("|"))
                key = (ftype, *orders.split())
                got[key] = got.get(key, 0) + int(mult)
        if (total, k3) != (24, True):
            return f"wrong_output: euler_total {total}, is_k3 {k3}"
        return None if got == expected else f"wrong_output: fibers {got}, want {expected}"

    return parse


def _factor_text(root: int, mult: int) -> str:
    base = "t" if root == 0 else f"(t{'-' if root > 0 else '+'}{abs(root)})"
    return base if mult == 1 else f"{base}^{mult}"


def cli_rounds(seed: int, root: Path, workdir: Path, runner):
    """Rounds of cli jobs; runner(argv) -> Outcome runs one command."""
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    surface_text = (root / SURFACE).read_text(encoding="utf-8")
    graph_text = (root / GRAPH).read_text(encoding="utf-8")
    rng = random.Random(seed)
    files_written = count()

    def write(text: str) -> str:
        path = workdir / f"input{next(files_written)}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path.relative_to(root))

    def job(kind, argv, **expect):
        return Job(kind, lambda: runner(argv), lambda got: _check_cli(got, **expect))

    def classify_job(as_json: bool):
        family = rng.choice(("B0", "A0"))
        max_mult, lo, hi = (3, 5, 8) if family == "B0" else (5, 7, 12)
        degree = rng.randint(lo, hi)
        roots = rng.sample(range(-4, 5), 9)
        mults, left = [], degree
        while left:
            mults.append(rng.randint(1, min(max_mult, left)))
            left -= mults[-1]
        scale = rng.choice((-3, -2, -1, 1, 2, 3))
        poly = "*".join([str(scale)] + [_factor_text(r, m) for r, m in zip(roots, mults)])
        A, B = ("0", poly) if family == "A0" else (poly, "0")
        path = write(f'field_order = 16\nA = "{A}"\nB = "{B}"\n')
        expected = oracles.expected_fibers(family, mults, degree)
        argv = ["classify", path] + (["--json"] if as_json else [])
        return job(f"classify_{family}", argv, code=0, parse=_classify_parse(expected, as_json))

    def defect_job(kind):
        map_name, action = rng.choice(MAP_NAMES), rng.choice(MAP_NAMES)
        axis = rng.choice(("x", "y"))
        if kind == "unknown_variable":
            var = rng.choice(("w", "u", "s", "q"))
            text, line = _edit_line(surface_text, f"map.{map_name}", axis, f'"{axis}*{var}"')
            return job("defect_" + kind, ["check-map", write(text), map_name], code=2, line=line)
        if kind == "unknown_map":
            name = rng.choice(("rho", "sigma2", "tau_alt", "phi")) + str(rng.randint(1, 9))
            return job("defect_" + kind, ["check-map", SURFACE, name], code=2)
        if kind == "unknown_action":
            name = rng.choice(("rho", "sigma2", "tau_alt", "phi")) + str(rng.randint(1, 9))
            return job("defect_" + kind, ["rigidity", GRAPH, "census", name], code=2)
        if kind == "bad_cycle":
            bad = rng.choice(("(a1 a2 a3 a4", "(a1 a2)(zz a3)", "(a1 a2)(a1 a3)", "(a1 a2))"))
            text, line = _edit_line(graph_text, f"action.{action}", "perm", bad)
            argv = ["rigidity", write(text), "census", action]
            return job("defect_" + kind, argv, code=2, line=line)
        if kind == "zero_denominator":
            text, line = _edit_line(surface_text, f"map.{map_name}", axis, f'"{axis}/(t-t)"')
            return job("defect_" + kind, ["check-map", write(text), map_name], code=2, line=line)
        if kind == "zero_order":
            text, line = _edit_line(graph_text, f"action.{action}", "n", "0")
            argv = ["rigidity", write(text), "census", action]
            return job("defect_" + kind, argv, code=2, line=line)
        if kind == "non_integer_order":
            token = rng.choice(("abc", "sixteen", "1.5", "0x10"))
            text, line = _edit_line(graph_text, f"action.{action}", "n", token)
            argv = ["rigidity", write(text), "census", action]
            return job("defect_" + kind, argv, code=2, line=line)
        # oversized_exponent: rejected only after expanding it, today
        exponent = rng.randint(2000, 4000)
        text, line = _edit_line(surface_text, None, "A", f'"(t+1)^{exponent}"')
        return job("defect_" + kind, ["classify", write(text)], code=2, line=line)

    # The oversized exponent runs into the timeout today; one per round keeps
    # the share of time it takes the same in every run.  The other kinds
    # take turns in a seeded order.
    other_kinds = [
        "unknown_variable", "unknown_map", "unknown_action", "bad_cycle",
        "zero_denominator", "zero_order", "non_integer_order",
    ]
    rng.shuffle(other_kinds)
    turns = count()
    for r in count():
        kinds = ["oversized_exponent"] + [
            other_kinds[next(turns) % len(other_kinds)] for _ in range(DEFECTS_PER_ROUND - 1)
        ]
        # Text forms in even rounds, --json forms in odd rounds; the filtered
        # enumeration in both forms every round.  The jobs of 0.7-1.3 s (the
        # enumeration twice, check-map sigma_alt once) are then 3 of 26, just
        # below the timeout, and the 90th percentile falls in their middle.
        jobs = [
            job(f"fixture_{g['argv'][0].replace('-', '_')}", g["argv"], code=0, stdout=g["stdout"])
            for g in golden
            if ("--json" in g["argv"]) == (r % 2 == 1) or "enumerate" in g["argv"]
        ]
        jobs += [classify_job(i % 2 == 1) for i in range(CLASSIFY_PER_ROUND)]
        jobs += [defect_job(kind) for kind in kinds]
        rng.shuffle(jobs)
        yield jobs
