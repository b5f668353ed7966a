"""The benchmark's three workloads, as request classes with a fixed
multiset of requests per round, drawn from the fixed catalogue below.
The seed only shuffles each round, so every round of every seed does
the same work and the latency percentiles always fall on the same
classes (NOTES.md explains the choice of each workload)."""

import functools
import json
import os
import random

NETLISTS = os.path.join("examples", "netlists")

# the paper's operating points: 3rd-order SHIL at |V_i| = 0.03 V for the
# BJT differential pair (Sec. IV-A) and the tunnel diode (Sec. IV-B);
# the tanh cell's PPV comparison sweeps V_i
TANH_VI = [0.01, 0.02, 0.03, 0.05, 0.1, 0.2]
PAPER_VI = 0.03
# injection frequencies inside the tanh cell's 3rd-SHIL band
TANH_FINJ = [2.999e6, 3.0e6, 3.001e6]
# netlists of the light classes, one request each per round
LIGHT_NETLISTS = ["colpitts_like.cir", "rc_filter.cir"]
# serve-cached: the working set of repeated tanh requests, skewed, as
# (V_i, requests per round)
HOT_TANH_VI = [(0.03, 10), (0.05, 5), (0.01, 4), (0.02, 3), (0.1, 2), (0.2, 2)]
# serve-cached: requests never seen before in a run (all distinct from
# the working set), used in this order
MISS_VI = [round(0.02125 + 0.0005 * k, 5) for k in range(200)]
TRAN = {"tstop": 2e-8, "dt": 2e-11, "probes": ["t"]}
# serve-mixed: transient lengths sqrt(2) apart, so the class has no
# single cost; the longest two cost about what an HB oscprobe does
TRAN_TSTOPS = [1e-8, 1.4e-8, 2e-8, 2.8e-8, 4e-8, 5.6e-8]


# --- canonical wire form (Api.Request.to_string byte for byte) --------

def _num(v):
    v = float(v)
    if v.is_integer() and abs(v) < 1e15:
        return "%.0f" % v
    return "%.17g" % v


def encode(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return _num(v)
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    if isinstance(v, list) and all(isinstance(p, tuple) for p in v) and v:
        return "{" + ",".join(encode(k) + ":" + encode(x) for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ",".join(encode(x) for x in v) + "]"
    raise TypeError("cannot encode %r" % (v,))


class Op:
    """One request: its class, the wire op and its ordered params."""

    def __init__(self, op, params):
        self.op, self.params = op, params
        self.cls = "setup"  # timed requests get their class in Workload.start
        # identity of the request without its id: repeated requests of
        # one run must get byte-identical reports
        self.key = op + " " + encode(params)

    def wire(self, rid):
        fields = [("id", rid), ("op", self.op)]
        if self.params:
            fields.append(("params", self.params))
        return encode(fields)

    def argv(self, jobs):
        """The one-shot CLI form of a shil or hb request."""
        p = dict(self.params)
        args = [self.op, "--osc", p["osc"], "-n", str(p["n"]), "--vi", repr(p["vi"])]
        if p.get("reduced"):
            args.append("--reduced")
        if p.get("lockrange"):
            args.append("--lockrange")
        return args + ["--jobs", str(jobs)]


def shil(osc, vi, reduced=False):
    params = [("osc", osc), ("n", 3), ("vi", vi)]
    if reduced:
        params.append(("reduced", True))
    return Op("shil", params)


def hb(osc, vi=PAPER_VI, finj=None, lockrange=False):
    params = [("osc", osc), ("n", 3), ("vi", vi), ("kmax", 7), ("samples", 1024)]
    if finj is not None:
        params.append(("finj", finj))
    if lockrange:
        params.append(("lockrange", True))
    return Op("hb", params)


@functools.lru_cache(maxsize=None)
def _netlist_text(name):
    with open(os.path.join(NETLISTS, name)) as f:
        return f.read()


def netlist(op, name, extra=()):
    return Op(op, [("name", name), ("text", _netlist_text(name))] + list(extra))


def tran(tstop=TRAN["tstop"]):
    return netlist("netlist-tran", "colpitts_like.cir", list(dict(TRAN, tstop=tstop).items()))


def times(count, make):
    """A class of `count` identical requests per round."""
    return lambda st: [make() for _ in range(count)]


def each(pairs, make):
    """A class of make(value) repeated n times per round, for each
    (value, n) in pairs."""
    return lambda st: [make(v) for v, n in pairs for _ in range(n)]


class Workload:
    """mode is "cli" (one-shot processes) or "serve" (one daemon).
    classes: (name, maker(state) -> the class's requests in one round,
    or None once the catalogue is exhausted); setup(state) -> the set-up
    requests; setup_reps: how many set-ups a run times (their median is
    setup_s, so one slow stretch of the host does not move it; a short
    set-up is repeated more often); trace_rounds: how many rounds the
    traced run replays."""

    def __init__(self, name, mode, jobs, cache, classes, setup, setup_reps,
                 min_rounds, trace_rounds, deadline=None):
        self.name, self.mode, self.jobs, self.cache = name, mode, jobs, cache
        self.classes, self.setup, self.setup_reps = classes, setup, setup_reps
        self.min_rounds, self.trace_rounds = min_rounds, trace_rounds
        self.deadline = deadline

    def start(self, seed):
        """A fresh generator state for one run: (setup ops, rounds)."""
        rng = random.Random(seed)
        state = {"misses": list(MISS_VI)}
        setup = self.setup(state)

        def rounds():
            while True:
                ops = []
                for cls, make in self.classes:
                    batch = make(state)
                    if batch is None:  # catalogue exhausted
                        return
                    for op in batch:
                        op.cls = cls
                    ops += batch
                rng.shuffle(ops)
                yield ops

        return setup, rounds()


def _next_miss(state):
    if not state["misses"]:
        return None
    return [shil("tanh", state["misses"].pop(0))]


def _cli_setup(state):
    return [shil("tanh", PAPER_VI), shil("diffpair", PAPER_VI),
            shil("tunnel", PAPER_VI), hb("tanh", lockrange=True)]


def _mixed_setup(state):
    return [Op("ping", []), netlist("lint", "colpitts_like.cir"),
            netlist("netlist-op", "colpitts_like.cir"), tran(),
            hb("tanh"), hb("diffpair"), hb("tunnel"), hb("tanh", finj=3.0e6),
            shil("tanh", PAPER_VI, reduced=True),
            shil("diffpair", PAPER_VI, reduced=True), shil("tanh", PAPER_VI)]


def _cached_setup(state):
    # fills the working set, plus one bypass and one miss
    return ([shil("tanh", vi) for vi, _ in HOT_TANH_VI]
            + [shil("diffpair", PAPER_VI), hb("tanh", lockrange=True), tran(),
               hb("tunnel"), shil("tanh", state["misses"].pop(0))])


WORKLOADS = {
    w.name: w
    for w in [
        # one-shot CLI processes, one at a time: the paper's own user path
        Workload(
            "cli-paper", mode="cli", jobs=2, cache=False,
            classes=[
                ("shil-tanh", lambda st: [shil("tanh", vi) for vi in TANH_VI + [PAPER_VI]]),
                ("shil-diffpair", times(8, lambda: shil("diffpair", PAPER_VI))),
                ("shil-tunnel", times(4, lambda: shil("tunnel", PAPER_VI))),
                ("hb-lockrange-tanh", times(1, lambda: hb("tanh", lockrange=True))),
            ],
            setup=_cli_setup, setup_reps=5, min_rounds=5, trace_rounds=1),
        # one daemon, cache off, one client connection; 10 cheaper and 12
        # dearer requests around 20 of 10-20 ms put p50 among the HB
        # requests, whose latency follows the host's speed more evenly than
        # the transients' (NOTES.md, "Noise: lessons")
        Workload(
            "serve-mixed", mode="serve", jobs=1, cache=False,
            classes=[
                ("light-ping", times(2, lambda: Op("ping", []))),
                ("light-lint", lambda st: [netlist("lint", n) for n in LIGHT_NETLISTS]),
                ("light-netlist-op", lambda st: [netlist("netlist-op", n) for n in LIGHT_NETLISTS]),
                ("medium-tran", lambda st: [tran(t) for t in TRAN_TSTOPS]),
                ("medium-hb-tanh", times(6, lambda: hb("tanh"))),
                ("medium-hb-diffpair", times(6, lambda: hb("diffpair"))),
                ("medium-hb-tunnel", times(3, lambda: hb("tunnel"))),
                ("medium-hb-finj", lambda st: [hb("tanh", finj=f) for f in TANH_FINJ for _ in range(2)]),
                ("heavy-shil-reduced-tanh",
                 lambda st: [shil("tanh", vi, reduced=True) for vi in TANH_VI]),
                ("heavy-shil-reduced-diffpair",
                 times(2, lambda: shil("diffpair", PAPER_VI, reduced=True))),
                ("heavy-shil-tanh", times(1, lambda: shil("tanh", PAPER_VI))),
            ],
            setup=_mixed_setup, setup_reps=15, min_rounds=3, trace_rounds=3, deadline=30.0),
        # the same daemon with its result cache on a fresh directory
        Workload(
            "serve-cached", mode="serve", jobs=1, cache=True,
            classes=[
                ("hit-tran", times(14, tran)),
                ("hit-shil-tanh", each(HOT_TANH_VI, lambda vi: shil("tanh", vi))),
                ("hit-hb-lockrange", times(8, lambda: hb("tanh", lockrange=True))),
                ("bypass-hb-tunnel", times(10, lambda: hb("tunnel"))),
                ("miss-shil-tanh", _next_miss),
                ("hit-shil-diffpair", times(1, lambda: shil("diffpair", PAPER_VI))),
            ],
            setup=_cached_setup, setup_reps=5, min_rounds=3, trace_rounds=3, deadline=30.0),
    ]
}


def reference_ops():
    """Every catalogue request whose report carries a lock band."""
    ops = [shil("tanh", vi) for vi in TANH_VI + MISS_VI]
    ops += [shil("tanh", vi, reduced=True) for vi in TANH_VI]
    ops += [shil("diffpair", PAPER_VI), shil("diffpair", PAPER_VI, reduced=True),
            shil("tunnel", PAPER_VI), hb("tanh", lockrange=True)]
    return ops
