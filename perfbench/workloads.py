"""The three benchmark workloads: which CLI commands each runs, made from a seed.

Every workload is a closed loop of `python -m entverify.cli` commands run one
after another. The workload seed decides the command order and the sampling
inputs (simulate seeds and fidelities); the CLI sees only the generated
arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SHOTS_MANY = 10 ** 7
SHOTS_FEW = 10 ** 3


@dataclass(frozen=True)
class Command:
    """One CLI invocation. `argv()` is what follows `python -m entverify.cli`."""

    kind: str                      # gen | verify | simulate | count
    scheme: str | None
    d: int
    seed: int | None = None
    shots: int | None = None
    fidelity: float | None = None
    enumerate: bool = False

    def argv(self) -> list[str]:
        if self.kind == "simulate":
            out = ["simulate", "--scheme", self.scheme]
        elif self.kind == "count":
            out = ["count"]
        else:
            out = [self.kind, self.scheme]
        out += ["--d", str(self.d)]
        if self.seed is not None:
            out += ["--seed", str(self.seed)]
        if self.shots is not None:
            out += ["--shots", str(self.shots)]
        if self.fidelity is not None:
            out += ["--fidelity", repr(self.fidelity)]
        if self.enumerate:
            out.append("--enumerate")
        if self.kind != "gen":      # gen always writes POVM JSON
            out.append("--json")
        return out

    def label(self) -> str:
        return " ".join(self.argv())


@dataclass
class Workload:
    name: str
    commands: list[Command]        # one pass, in run order
    fill: list[Command] = field(default_factory=list)   # set-up; the pass reads its cache


def _simulate(rng: random.Random, scheme: str, d: int, shots: int) -> Command:
    # fidelity in [0.6, 0.95] keeps the binomial stderr well away from 0
    return Command("simulate", scheme, d, seed=rng.randrange(2 ** 31), shots=shots,
                   fidelity=round(rng.uniform(0.6, 0.95), 4))


def large_d(rng: random.Random, tiny: bool) -> Workload:
    mub_ds, sim_ds, clifford_d = ((5, 7), (5,), 2) if tiny else ((17, 19, 23, 29), (19, 23), 5)
    cmds = [Command("verify", "mub", d) for d in mub_ds]
    cmds += [_simulate(rng, "mub", d, SHOTS_FEW) for d in sim_ds]
    cmds.append(Command("verify", "clifford", clifford_d))
    rng.shuffle(cmds)
    return Workload("large-d", cmds)


def many_shots(rng: random.Random, tiny: bool) -> Workload:
    cases = (("sic", 2), ("mub", 3), ("clifford", 2)) if tiny else (
        ("sic", 2), ("sic", 3), ("mub", 3), ("mub", 5), ("clifford", 2), ("clifford", 3))
    shots = 10 ** 4 if tiny else SHOTS_MANY
    cmds = [_simulate(rng, scheme, d, shots) for scheme, d in cases]
    rng.shuffle(cmds)
    return Workload("many-shots", cmds)


def warm_cache(rng: random.Random, tiny: bool) -> Workload:
    # Fill and timed commands use the CLI's default --seed: after a change that
    # drops a cache, the timed commands pay the default-seed search, as a user would.
    clifford_ds, sic_ds = ((2, 3), (4,)) if tiny else ((2, 3, 5), range(4, 10))
    top = clifford_ds[-1]
    fill = [Command("count", None, d, enumerate=True) for d in clifford_ds]
    fill += [Command("gen", "sic", d) for d in sic_ds]
    cmds = [Command("gen", "clifford", top), Command("count", None, top, enumerate=True),
            Command("verify", "clifford", top)]
    cmds += [Command(kind, "sic", d) for kind in ("gen", "verify") for d in sic_ds]
    rng.shuffle(cmds)
    return Workload("warm-cache", cmds, fill=fill)


WORKLOADS = {"large-d": large_d, "many-shots": many_shots, "warm-cache": warm_cache}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` for this seed; `tiny` gives the self-test's small version."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tiny)
