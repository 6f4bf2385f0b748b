#!/usr/bin/env python3
"""Repository benchmark: the NDJSON server under three closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_liquor --seed 7 --seconds 20 --trace 0

One invocation builds the server and perfbench_probe from source (under
.bench_build/), generates every input from --seed (tables through the
repository's own generators, written as v2 table snapshots; request
sequences from the same seed), boots the real tsexplain_serve in TCP mode,
drives it from this single process over at most nproc connections, checks
the answers, and prints its metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (no tracing anywhere).
--trace 1 reports the per-layer metrics: the same traffic with the
server's "trace":true spans, plus perfbench_probe's staged in-process
replay of the workload's engines, which times each layer's public call and
asserts the staged result equals TSExplain::Run bit for bit.

Workloads, metrics and the layer -> end-to-end map: BENCHMARK.json and
perfbench/layers.json.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import selectors
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
WORKLOADS = ("cold_liquor", "hot_explore", "stream_append")
SETUP_REPEATS = 5  # setups per run; setup_s is their median
LIQUOR_DIMS = ("BV", "CN", "P", "VN")
# Measure-side variants crossed with every explain-by subset: keys with the
# same explain_by share a registry shape and differ only in these fields.
COLD_VARIANTS = {  # explain-by size -> (agg, diff_metric) variants
    2: (("sum", "abs"), ("avg", "rel"), ("sum", "rr")),
    3: (("sum", "abs"),),
    4: (("sum", "abs"), ("avg", "rel"), ("sum", "rel"), ("avg", "abs")),
}
VARIANCE_METRICS = ("tse", "dist1", "dist2", "allpair", "Stse", "Sdist1", "Sdist2", "Sallpair")
HOT_ENGINES = (  # (dataset, measure, explain_by); "fast" engine fields
    ("sp500", "weighted_price", ["category", "stock", "subcategory"]),
    ("sp500", "weighted_price", ["category", "subcategory"]),
    ("covid", "daily_confirmed_cases", ["state"]),
    ("covid", "total_confirmed_cases", ["state"]),
)
COLD_MIN_CYCLES = 4  # untraced runs: 4 x 26 keys, so p90 rests on >= 100 samples
HOT_FRESH_EVERY = 4  # one request in four is a fresh spec, three repeat
STREAM_MEASURE = "daily_confirmed_cases"
SESSION_LOG_FLUSH = "fflush after every record, no fsync (AppendLog default)"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def note(msg):
    """A human-readable result line (stdout, before the final JSON line)."""
    print("# " + msg, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def clients_for(workload):
    return NPROC if workload == "hot_explore" else max(1, NPROC // 2)


# --------------------------------------------------------------- build ---

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("run from the root of a source checkout (no CMakeLists.txt/src beside perfbench/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(NPROC),
                      "--target", "tsexplain_serve", "perfbench_probe"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                log(build_log.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))
    serve = BUILD / "repo" / "tsexplain_serve"
    probe = BUILD / "perfbench_probe"
    for exe in (serve, probe):
        if not exe.is_file():
            fail("missing build output " + str(exe))
    return serve, probe


def run_probe(probe, args, timeout=170):
    proc = subprocess.run([str(probe)] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def source_stamp():
    """git SHA (+ -dirty) of the checkout, or a content hash of src/ and tools/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=10)
            return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for d in ("src", "tools"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "nogit-src-" + h.hexdigest()[:12]


# -------------------------------------------------------------- server ---

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One tsexplain_serve child in TCP mode; ready once it logs 'listening'."""

    def __init__(self, serve, extra_args, workdir):
        self.serve, self.extra_args, self.workdir = serve, extra_args, workdir
        self.proc = None
        self.port = None

    def start(self):
        for _ in range(5):
            self.port = free_port()
            self.proc = subprocess.Popen(
                [str(self.serve), "--port", str(self.port)] + self.extra_args,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                cwd=str(self.workdir))
            ready = threading.Event()
            self.stderr_tail = []

            def drain(pipe=self.proc.stderr, tail=self.stderr_tail):
                for raw in pipe:
                    line = raw.decode(errors="replace")
                    if "listening on" in line:
                        ready.set()
                    tail.append(line)
                    del tail[:-20]
                ready.set()

            self.drainer = threading.Thread(target=drain, daemon=True)
            self.drainer.start()
            ready.wait(60)
            if self.proc.poll() is None:
                return
            self.drainer.join(5)
        fail("server did not start: " + "".join(self.stderr_tail))

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        fail("no VmHWM for the server")

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                c = Conn(self.port)
                c.call({"op": "shutdown"})
                c.close()
            except OSError:
                pass
            try:
                self.proc.wait(15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.drainer.join(5)
        self.proc.stderr.close()
        self.proc = None


class Conn:
    """One NDJSON connection; call() is a blocking round trip."""

    _ids = 0

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    @classmethod
    def next_id(cls):
        cls._ids += 1
        return cls._ids

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def read_line(self):
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                line = bytes(self.buf[:i])
                del self.buf[:i + 1]
                return line
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise OSError("server closed the connection")
            self.buf += chunk

    def call(self, request):
        request = dict(request)
        request["id"] = Conn.next_id()
        self.send(json.dumps(request, separators=(",", ":")))
        resp = json.loads(self.read_line())
        if resp.get("id") != request["id"]:
            raise OSError("response id mismatch")
        return resp

    def close(self):
        self.sock.close()


def must(resp, what):
    if not resp.get("ok"):
        fail("%s failed: %s" % (what, json.dumps(resp.get("error"))))
    return resp


# ------------------------------------------------------------- traffic ---

class Step:
    """One logical request: lines sent in order, each after the previous reply.

    measured=False marks maintenance (drop/register, session reopen), which
    is checked and counted but kept out of the latency sample.
    """

    __slots__ = ("requests", "measured", "kind", "meta")

    def __init__(self, requests, measured=True, kind="", meta=None):
        self.requests, self.measured, self.kind, self.meta = requests, measured, kind, meta


class Phase:
    """Counts and samples of one phase (warm-up or timed)."""

    def __init__(self, name):
        self.name = name
        self.sent = self.succeeded = self.failed = self.shed = self.malformed = 0
        self.latencies = []  # ms, measured steps only
        self.done = []  # (completion offset s, latency ms, window tag) per measured step
        self.wire = []  # client ms minus the server's latency_ms
        self.per_client = {}  # client -> [completed, last completion offset]
        self.start = None
        self.spans = []  # (name, duration_ms) from traced responses
        self.open_ms = []  # open_session round trips

    def summary(self):
        return ("%s: sent=%d succeeded=%d failed=%d shed=%d malformed=%d (base: %d requests sent)"
                % (self.name, self.sent, self.succeeded, self.failed, self.shed, self.malformed,
                   self.sent))


def well_formed_result(result):
    try:
        k = result["k"]
        cuts = result["cuts"]
        segs = result["segments"]
        if not (isinstance(k, int) and k >= 1 and len(cuts) == k + 1 and len(segs) == k):
            return "k/cuts/segments disagree"
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            return "cuts not increasing"
        for s in segs:
            for e in s["explanations"]:
                if not isinstance(e["description"], str) or not isinstance(e["gamma"], (int, float)):
                    return "bad explanation"
    except (KeyError, TypeError):
        return "missing result fields"
    return None


def check_response(resp, request):
    if resp.get("op") != request["op"]:
        return "op mismatch"
    op = request["op"]
    if op in ("explain", "explain_session"):
        if not isinstance(resp.get("latency_ms"), (int, float)):
            return "no latency_ms"
        return well_formed_result(resp.get("result"))
    if op == "append" and not isinstance(resp.get("rebuilt"), bool):
        return "append without rebuilt"
    return None


def drive(port, clients, phase, trace=False, keep=None):
    """Closed loop: every client sends its next step only after the reply.

    clients: generators yielding Step and receiving the step's response
    list; a client ends when its generator stops (each checks its own
    deadline). keep(step, responses) sees every completed measured step.
    """
    sel = selectors.DefaultSelector()
    conns = []
    state = {}
    phase.start = time.perf_counter()
    for ci, gen in enumerate(clients):
        conn = Conn(port)
        conns.append(conn)
        conn.sock.setblocking(False)
        st = {"gen": gen, "step": None, "i": 0, "resps": [], "t0": 0.0, "ci": ci, "conn": conn}
        state[conn.sock.fileno()] = st
        sel.register(conn.sock, selectors.EVENT_READ, st)
        advance(st, None, phase, trace)

    live = sum(1 for st in state.values() if st["step"] is not None)
    while live:
        events = sel.select(timeout=60)
        # Replies end their latency when select sees them, so the time this
        # process spends on one reply never lands on another's latency.
        now = time.perf_counter()
        if not events:
            fail("no reply from the server within 60 s")
        for key, _ in events:
            st = key.data
            conn = st["conn"]
            try:
                chunk = conn.sock.recv(1 << 20)
            except BlockingIOError:
                continue
            if not chunk:
                fail("server closed a client connection")
            conn.buf += chunk
            while st["step"] is not None:
                i = conn.buf.find(b"\n")
                if i < 0:
                    break
                line = bytes(conn.buf[:i])
                del conn.buf[:i + 1]
                on_reply(st, line, now, phase, keep)
                if st["step"] is None:
                    live -= 1
    for conn in conns:
        sel.unregister(conn.sock)
        conn.sock.setblocking(True)
        conn.close()
    sel.close()


def advance(st, responses, phase, trace):
    try:
        step = next(st["gen"]) if responses is None else st["gen"].send(responses)
    except StopIteration:
        st["step"] = None
        return
    st["step"], st["i"], st["resps"] = step, 0, []
    st["trace"] = trace
    st["t0"] = time.perf_counter()
    send_current(st)


def send_current(st):
    req = dict(st["step"].requests[st["i"]])
    req["id"] = Conn.next_id()
    if st["trace"] and req["op"] in ("explain", "explain_session"):
        req["trace"] = True
    st["req"] = req
    st["line"] = json.dumps(req, separators=(",", ":"))
    st["t_send"] = time.perf_counter()
    conn = st["conn"]
    conn.sock.setblocking(True)
    conn.send(st["line"])
    conn.sock.setblocking(False)


def on_reply(st, line, now, phase, keep):
    step, req = st["step"], st["req"]
    phase.sent += 1
    try:
        resp = json.loads(line)
    except ValueError:
        resp = None
    problem = None
    if not isinstance(resp, dict) or resp.get("id") != req["id"]:
        problem = "unparseable or unmatched response"
    elif not resp.get("ok"):
        code = (resp.get("error") or {}).get("code")
        if code in ("overloaded", "quota_exceeded"):
            phase.shed += 1
        else:
            phase.failed += 1
        log("request failed: %s -> %s" % (st["line"][:200], json.dumps(resp.get("error"))))
    else:
        problem = check_response(resp, req)
        if problem is None:
            phase.succeeded += 1
    if problem is not None:
        phase.malformed += 1
        log("malformed response (%s): %s" % (problem, line[:300]))
    st["resps"].append(resp)
    if isinstance(resp, dict) and resp.get("ok") and isinstance(resp.get("latency_ms"), (int, float)):
        if step.measured:
            phase.wire.append((now - st["t_send"]) * 1000.0 - resp["latency_ms"])
        for span in resp.get("trace") or []:
            phase.spans.append((span["name"], span["duration_ms"]))
    if req["op"] == "open_session":
        phase.open_ms.append((now - st["t_send"]) * 1000.0)
    st["i"] += 1
    if st["i"] < len(step.requests):
        send_current(st)
        return
    if step.measured:
        phase.latencies.append((now - st["t0"]) * 1000.0)
        phase.done.append((now - phase.start, phase.latencies[-1], (step.meta or {}).get("cycle")))
        c = phase.per_client.setdefault(st["ci"], [0, 0.0])
        c[0] += 1
        c[1] = now - phase.start
        if keep is not None and all(isinstance(r, dict) and r.get("ok") for r in st["resps"]):
            keep(step, st["resps"])
    advance(st, st["resps"], phase, st["trace"])


# ----------------------------------------------------------- workloads ---

def explain_req(dataset, measure, explain_by, **fields):
    req = {"op": "explain", "dataset": dataset, "measure": measure, "explain_by": list(explain_by),
           "fast": True}
    req.update(fields)
    return req


class Workload:
    """Setup, traffic generators and oracle-case selection for one workload."""

    def __init__(self, name, seed, data_dir):
        self.name, self.seed, self.dir = name, seed, data_dir
        self.clients = clients_for(name)
        self.server_args = []  # server defaults, plus session logs for streaming
        if name == "stream_append":
            self.log_dir = data_dir / "session_logs"
            self.log_dir.mkdir(exist_ok=True)
            self.server_args += ["--session-log-dir", str(self.log_dir)]
        self.kept = []  # (case dict, server result, engine key) for the oracle
        self.keys_traced = set()
        self.open_ms = []  # open_session round trips (session engine builds)
        self.sent_lines = []

    # -- set-up: from launch until ready
    def setup(self, conn):
        if self.name == "cold_liquor":
            for c in range(self.clients):
                must(conn.call(self.register("liquor_c%d" % c, "liquor.tsx")), "register")
        elif self.name == "hot_explore":
            for name in ("sp500", "covid"):
                must(conn.call(self.register(name, name + ".tsx")), "register")
            for ds, measure, by in HOT_ENGINES:  # build + warm each engine
                must(conn.call(explain_req(ds, measure, by)), "warm-up explain")
        else:  # the prefix every session opens on, and one session per client
            must(conn.call(self.register("covid_prefix", "covid_prefix.tsx")), "register")
            self.sessions = []
            for _ in range(self.clients):
                t0 = time.perf_counter()
                sid = must(conn.call(self.session_request()), "open_session")["session"]
                self.open_ms.append((time.perf_counter() - t0) * 1000.0)
                self.sessions.append({"id": sid, "done": 0})

    def register(self, name, fname):
        return {"op": "register", "name": name, "csv_path": str(self.dir / fname)}

    # -- cold_liquor
    def cold_keys(self):
        """Explain-by subsets of LIQUOR_DIMS with >= 2 attributes, crossed
        with measure-side variants; the variant counts per subset size put
        p50 inside the 2-attribute keys and p90 inside the 4-attribute ones,
        away from the cost steps between classes (see layers.json)."""
        keys = []
        for mask in range(1, 16):
            by = tuple(d for i, d in enumerate(LIQUOR_DIMS) if mask >> i & 1)
            if len(by) >= 2:
                keys += [(by,) + v for v in COLD_VARIANTS[len(by)]]
        return keys

    def cold_cycle(self, rng):
        """One cycle of the key set in a seeded order: keys of each explain-by
        size are shuffled, then interleaved evenly, 4-attribute keys half a
        period after the 3-attribute ones, so heavy keys are spread the same
        way through every cycle whatever the seed."""
        slots = []
        for size, shift in ((2, 0.0), (3, 0.011), (4, 0.125)):
            keys = [k for k in self.cold_keys() if len(k[0]) == size]
            rng.shuffle(keys)
            slots += [((i + 0.5) / len(keys) + shift, k) for i, k in enumerate(keys)]
        return [k for _, k in sorted(slots)]

    def cold_queue(self, deadline, warm, min_cycles):
        """Keys shared by all clients, whole cycles of the key set; every
        cycle issues each key exactly once, and no new cycle starts after
        the deadline once min_cycles have run, so every run issues whole
        key multisets."""
        rng = random.Random("%d/cold" % self.seed)
        keys = self.cold_cycle(rng)
        if warm:
            return {"keys": keys[:2 * self.clients], "pos": 0, "cycle": 0, "last": True}
        return {"keys": keys, "pos": 0, "cycle": 0, "rng": rng, "deadline": deadline,
                "min_cycles": min_cycles, "last": False}

    def cold_next(self, q):
        if q["pos"] == len(q["keys"]):
            if q["last"] or (time.perf_counter() >= q["deadline"]
                             and q["cycle"] + 1 >= q["min_cycles"]):
                return None
            q["keys"] = self.cold_cycle(q["rng"])
            q["pos"], q["cycle"] = 0, q["cycle"] + 1
        q["pos"] += 1
        return q["cycle"], q["keys"][q["pos"] - 1]

    def cold_client(self, c, q):
        """First-touch keys on this client's own dataset: before its first
        key of a new cycle it drops the dataset and registers it again."""
        ds = "liquor_c%d" % c
        my_cycle = None
        while True:
            item = self.cold_next(q)
            if item is None:
                return
            cycle, (by, agg, diff) = item
            if my_cycle is not None and cycle != my_cycle:
                yield Step([{"op": "drop_dataset", "name": ds}, self.register(ds, "liquor.tsx")],
                           measured=False)
            my_cycle = cycle
            req = explain_req(ds, "bottles_sold", by, agg=agg, diff_metric=diff)
            yield Step([req], kind="explain",
                       meta={"table": "liquor.tsx", "key": (by, agg, diff), "cycle": cycle})

    def reset(self, conn):
        """Between phases: cold clients start on fresh registrations."""
        if self.name == "cold_liquor":
            for c in range(self.clients):
                ds = "liquor_c%d" % c
                must(conn.call({"op": "drop_dataset", "name": ds}), "drop_dataset")
                must(conn.call(self.register(ds, "liquor.tsx")), "register")

    # -- hot_explore
    def hot_spec_pool(self):
        specs = []
        for e in range(len(HOT_ENGINES)):
            for k in list(range(1, 21)) + [("auto", m) for m in range(2, 21)]:
                for var in VARIANCE_METRICS:
                    for k_curve in (True, False):
                        for trend in (False, True):
                            # The set-up warm query (k auto, max_k 20,
                            # tse, k_curve, no trendlines) is cached.
                            if (k, var, k_curve, trend) != (("auto", 20), "tse", True, False):
                                specs.append((e, k, var, k_curve, trend))
        random.Random("%d/hot" % self.seed).shuffle(specs)
        return specs

    def hot_request(self, spec):
        e, k, var, k_curve, trend = spec
        ds, measure, by = HOT_ENGINES[e]
        fields = {"variance_metric": var, "k_curve": k_curve, "trendlines": trend}
        if isinstance(k, tuple):
            fields.update(k=0, max_k=k[1])
        else:
            fields["k"] = k
        return explain_req(ds, measure, by, **fields)

    def hot_client(self, c, deadline, pool, st):
        """Blocks of HOT_FRESH_EVERY requests: one fresh spec (a module-(c)
        pass on a hot engine) at a seeded position, the rest repeat one of
        this client's earlier specs (result-cache hits). st carries the
        client's position in its share of the spec pool across phases."""
        mine = pool[c::self.clients]
        rng, issued = st["rng"], st["issued"]
        while time.perf_counter() < deadline:
            fresh_at = rng.randrange(HOT_FRESH_EVERY)
            for j in range(HOT_FRESH_EVERY):
                fresh = j == fresh_at or not issued
                if fresh:
                    if st["n"] >= len(mine):
                        fail("hot_explore spec pool exhausted")
                    spec = mine[st["n"]]
                    st["n"] += 1
                    issued.append(spec)
                else:
                    spec = issued[rng.randrange(len(issued))]
                e = spec[0]
                yield Step([self.hot_request(spec)], kind="explain",
                           meta={"table": HOT_ENGINES[e][0] + ".tsx", "engine": e})

    # -- stream_append
    def stream_days(self):
        with open(self.dir / "stream.ndjson") as f:
            return [json.loads(line) for line in f]

    def session_request(self):
        return {"op": "open_session", "dataset": "covid_prefix", "measure": STREAM_MEASURE,
                "explain_by": ["state"], "fast": True}

    def stream_client(self, c, deadline, days, sessions):
        """append (one day) -> explain_session, looping over the append
        stream; the session is closed and reopened when the stream ends."""
        d = sessions[c]["done"]
        while time.perf_counter() < deadline:
            if d == len(days):
                resps = yield Step([{"op": "close_session", "session": sessions[c]["id"]},
                                    self.session_request()], measured=False)
                sessions[c]["id"] = resps[1]["session"]
                d = 0
            day = days[d]
            sid = sessions[c]["id"]
            d += 1
            sessions[c]["done"] = d
            yield Step([{"op": "append", "session": sid, "label": day["label"], "rows": day["rows"]},
                        {"op": "explain_session", "session": sid}],
                       kind="session", meta={"appends": d})

    # -- oracle cases
    def case_of(self, step):
        if step.kind == "session":
            req = self.session_request()
            return {"kind": "session", "table": "covid_prefix.tsx", "request": req,
                    "appends": step.meta["appends"]}
        req = dict(step.requests[0])
        return {"kind": "explain", "table": step.meta["table"], "request": req}

    def keeper(self, sample_every, traced):
        """Keeps a seeded sample of completed steps for the oracle. In the
        traced phase it also keeps the first response of every distinct
        engine key, and records the request lines for the replay."""
        rng = random.Random("%d/%s/oracle/%d" % (self.seed, self.name, traced))

        def keep(step, resps):
            key = self.engine_key(step)
            if rng.random() < sample_every or (traced and key not in self.keys_traced):
                if traced:
                    self.keys_traced.add(key)
                self.kept.append((self.case_of(step), resps[-1]["result"], key))
            if traced:
                for r in step.requests:
                    if r["op"] in ("explain", "explain_session", "append"):
                        self.sent_lines.append(json.dumps(r, separators=(",", ":")))
        return keep

    def engine_key(self, step):
        if step.kind == "session":
            return ("session",)
        if self.name == "hot_explore":
            return ("hot", step.meta["engine"])
        return ("cold",) + step.meta["key"]

    def replay_cases(self):
        """The staged replay's cases: every engine key of the workload, and
        for streaming either the workload's own session or a probe session."""
        cases = []
        probe_session = {"kind": "session", "table": "covid_prefix.tsx",
                         "request": self.session_request(), "appends": 16}
        if self.name == "cold_liquor":
            for by, agg, diff in self.cold_keys():
                cases.append({"kind": "explain", "table": "liquor.tsx", "request": explain_req(
                    "liquor", "bottles_sold", by, agg=agg, diff_metric=diff)})
            cases.append(probe_session)
        elif self.name == "hot_explore":
            for ds, measure, by in HOT_ENGINES:  # the set-up query builds each engine
                cases.append({"kind": "explain", "table": ds + ".tsx",
                              "request": explain_req(ds, measure, by)})
            cases += [c for c, _, _ in self.kept if c["kind"] == "explain"][:60]
            cases.append(probe_session)
        else:
            req = dict(self.session_request(), op="explain")
            cases.append({"kind": "explain", "table": "covid_prefix.tsx", "request": req})
            cases.append(dict(probe_session, appends=len(self.stream_days())))
        return cases


# -------------------------------------------------------------- oracle ---

def compare_results(server, reference):
    """None when the server's answer matches the reference: K, cuts, and per
    segment the top-m explanations and gammas (as rendered on the wire)."""
    if server.get("k") != reference.get("k"):
        return "K %r != %r" % (server.get("k"), reference.get("k"))
    if server.get("cuts") != reference.get("cuts"):
        return "cuts %r != %r" % (server.get("cuts"), reference.get("cuts"))
    ss, rs = server.get("segments") or [], reference.get("segments") or []
    if len(ss) != len(rs):
        return "segment count differs"
    for i, (a, b) in enumerate(zip(ss, rs)):
        ta = [(e["description"], e["gamma"]) for e in a.get("explanations", [])]
        tb = [(e["description"], e["gamma"]) for e in b.get("explanations", [])]
        if ta != tb:
            return "segment %d top-m %r != %r" % (i, ta, tb)
    return None


def run_oracle(probe, data_dir, kept, tag):
    """Checks kept (case, server result) pairs against perfbench_probe."""
    if not kept:
        return 0, []
    cases = data_dir / ("oracle_%s.ndjson" % tag)
    with open(cases, "w") as f:
        for case, _, _ in kept:
            f.write(json.dumps(case, separators=(",", ":")) + "\n")
    rc, out, err = run_probe(probe, ["oracle", "--dir", str(data_dir), "--cases", str(cases)])
    if rc != 0:
        fail("oracle probe failed: " + err[-2000:])
    refs = [json.loads(line)["result"] for line in out.splitlines() if line.strip()]
    if len(refs) != len(kept):
        fail("oracle returned %d answers for %d cases" % (len(refs), len(kept)))
    mismatches = []
    for (case, server, _), ref in zip(kept, refs):
        why = compare_results(server, ref)
        if why:
            mismatches.append("%s: %s" % (json.dumps(case["request"])[:160], why))
    return len(kept), mismatches


# ------------------------------------------------------------- metrics ---

def pct(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def throughput(phase):
    return sum(n / t for n, t in phase.per_client.values() if t > 0)


WINDOWS = 5  # time windows of a hot_explore / stream_append timed phase


def windowed(phase, seconds):
    """p50 and p90 as medians over windows of the timed phase:
    the key cycles for cold_liquor (each holds the whole key multiset), else
    WINDOWS equal time windows. A burst of outside noise then moves one
    window, not the reported value."""
    groups = {}
    if phase.done and phase.done[0][2] is not None:
        for _, lat, cycle in phase.done:
            groups.setdefault(cycle, []).append(lat)
    else:
        width = seconds / WINDOWS
        for t, lat, _ in phase.done:
            groups.setdefault(min(WINDOWS - 1, int(t / width)), []).append(lat)
    lats = [sorted(v) for _, v in sorted(groups.items()) if len(v) >= 2]
    return (statistics.median([pct(v, 50) for v in lats]),
            statistics.median([pct(v, 90) for v in lats]), len(lats))


def stats_of(conn):
    r = must(conn.call({"op": "stats"}), "stats")
    return {"hits": r["cache"]["hits"], "misses": r["cache"]["misses"],
            "evictions": r["cache"]["evictions"], "hot_engines": r["hot_engines"],
            "cache_bytes": r["cache"]["bytes_used"]}


class Monitor:
    """Polls stats on its own connection (barriers are per connection, so
    this never stalls the clients) and keeps the peak resident engines."""

    PERIOD_S = 0.25

    def __init__(self, port):
        self.conn = Conn(port)
        self.peak_engines = 0
        self.stop_flag = threading.Event()
        self.thread = threading.Thread(target=self.loop, daemon=True)
        self.thread.start()

    def loop(self):
        while not self.stop_flag.wait(self.PERIOD_S):
            self.peak_engines = max(self.peak_engines, stats_of(self.conn)["hot_engines"])

    def stop(self):
        self.stop_flag.set()
        self.thread.join()
        self.conn.close()


# ---------------------------------------------------------- per-layer ---

# Per-layer metrics of a --trace 1 run, with units; perfbench/layers.json
# names the public call each one times and the end-to-end metric it moves.
LAYER_UNITS = {
    "storage.snapshot_open_ms": "ms", "storage.log_bytes_per_append": "bytes",
    "diff.registry_build_ms": "ms", "diff.registry_cells": "count", "diff.ca_ms": "ms",
    "diff.ca_invocations": "count",
    "cube.build_ms": "ms", "cube.mask_ms": "ms", "cube.active_ratio": "ratio",
    "cube.gamma_fill_ms": "ms",
    "seg.sketch_ms": "ms", "seg.variance_table_ms": "ms", "seg.dp_ms": "ms", "seg.elbow_us": "us",
    "seg.candidates": "count", "seg.topfor_cached": "count",
    "pipeline.segment_explain_ms": "ms", "pipeline.render_json_ms": "ms",
    "pipeline.stream_append_ms": "ms", "pipeline.stream_explain_ms": "ms",
    "pipeline.stream_rebuild_ratio": "ratio",
    "service.parse_us": "us", "service.canonicalize_us": "us", "service.cache_lookup_us": "us",
    "service.admission_wait_ms": "ms", "service.engine_build_ms": "ms", "service.compute_ms": "ms",
    "service.wire_ms": "ms", "service.cache_hit_ratio": "ratio", "service.cache_evictions": "count",
    "service.hot_engines": "count", "service.shed": "count",
    "trace.overhead_p50_ms": "ms",
}
# Replay span names that are engine layers (for the largest-self-time check).
ENGINE_LAYERS = ("diff.registry_build", "cube.build", "cube.mask", "seg.explainer_init",
                 "cube.gamma_fill", "diff.ca", "seg.sketch", "seg.variance_table", "seg.dp",
                 "seg.elbow", "pipeline.segment_explain", "pipeline.render_json")


def mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(wl, probe, work, phases, before, after, monitor):
    """Runs the staged replay and folds it with the traced server phase into
    the per-layer metrics. Returns None when the replay disagrees with
    TSExplain::Run."""
    plain, traced = phases
    cases_path, lines_path, spans_path = work / "replay.ndjson", work / "lines.ndjson", work / "spans.json"
    with open(cases_path, "w") as f:
        for case in wl.replay_cases():
            f.write(json.dumps(case, separators=(",", ":")) + "\n")
    lines = list(wl.sent_lines)
    if wl.name == "stream_append":  # the config every session reopen carries
        lines.append(json.dumps(wl.session_request(), separators=(",", ":")))
    with open(lines_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    rc, out, err = run_probe(probe, ["replay", "--dir", str(work), "--cases", str(cases_path),
                                     "--lines", str(lines_path), "--spans", str(spans_path)])
    if rc not in (0, 3):
        fail("replay probe failed: " + err[-2000:])
    rep = json.loads(out.splitlines()[-1])
    if rep["mismatches"]:
        for m in rep["mismatches"][:10]:
            note("REPLAY MISMATCH vs TSExplain::Run: " + m)
        return None
    note("staged replay: %d engines, %d queries, %d spans (kept in memory, written at the end); "
         "%d staged results equal TSExplain::Run bit for bit (cuts, K, top-m ids, gammas, K curve)"
         % (rep["counts"]["engines"], rep["counts"]["queries"], rep["spans"], rep["compared"]))

    layers, counts = rep["layers"], rep["counts"]
    engines, queries = max(1, counts["engines"]), max(1, counts["queries"])

    def self_ms(name, per):
        return layers.get(name, {}).get("self_ms", 0.0) / per

    def per_call(name, field="total_ms"):
        entry = layers.get(name)
        return entry[field] / entry["calls"] if entry else 0.0

    spans = {}
    for name, dur in traced.spans:
        spans.setdefault(name, []).append(dur)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    appends = max(1, counts["appends"])
    m = {
        "storage.snapshot_open_ms": per_call("storage.snapshot_open"),
        "storage.log_bytes_per_append": rep["log_bytes"] / appends,
        "diff.registry_build_ms": self_ms("diff.registry_build", engines),
        "diff.registry_cells": counts["registry_cells"],
        "diff.ca_ms": self_ms("diff.ca", queries),
        "diff.ca_invocations": counts["ca_invocations"],
        "cube.build_ms": self_ms("cube.build", engines),
        "cube.mask_ms": self_ms("cube.mask", engines),
        "cube.active_ratio": counts["active_cells"] / max(1, counts["registry_cells"]),
        "cube.gamma_fill_ms": self_ms("cube.gamma_fill", queries),
        "seg.sketch_ms": self_ms("seg.sketch", queries),
        "seg.variance_table_ms": self_ms("seg.variance_table", queries),
        "seg.dp_ms": self_ms("seg.dp", queries),
        "seg.elbow_us": per_call("seg.elbow") * 1000.0,
        "seg.candidates": counts["candidates"],
        "seg.topfor_cached": counts["topfor_cached"],
        "pipeline.segment_explain_ms": self_ms("pipeline.segment_explain", queries),
        "pipeline.render_json_ms": self_ms("pipeline.render_json", queries),
        "pipeline.stream_append_ms": per_call("pipeline.stream_append"),
        "pipeline.stream_explain_ms": per_call("pipeline.stream_explain"),
        "pipeline.stream_rebuild_ratio": counts["rebuilds"] / appends,
        "service.parse_us": rep["parse_us_total"] / max(1, counts["parse_calls"]),
        "service.canonicalize_us": rep["canonicalize_us_total"] / max(1, counts["canonicalize_calls"]),
        "service.cache_lookup_us": mean(spans.get("cache_lookup", [])) * 1000.0,
        "service.admission_wait_ms": mean(spans.get("admission_wait", [])),
        "service.engine_build_ms": mean(spans.get("engine_build", [])),
        "service.compute_ms": mean(spans.get("compute", [])),
        "service.wire_ms": statistics.median(traced.wire) if traced.wire else 0.0,
        "service.cache_hit_ratio": hits / max(1, hits + misses),
        "service.cache_evictions": after["evictions"] - before["evictions"],
        "service.hot_engines": monitor.peak_engines,
        "service.shed": sum(p.shed for p in phases),
        "trace.overhead_p50_ms": pct(traced.latencies, 50) - pct(plain.latencies, 50),
    }
    na = []
    if wl.name != "stream_append":
        na += ["storage.log_bytes_per_append", "pipeline.stream_append_ms",
               "pipeline.stream_explain_ms", "pipeline.stream_rebuild_ratio"]
        note("streaming layers are off this workload's path: their values come from a "
             "16-append probe session on the covid prefix")
    else:
        m["service.engine_build_ms"] = mean(wl.open_ms + traced.open_ms + plain.open_ms)
        note("service.engine_build_ms: sessions build their engine in open_session; "
             "value is its client round trip (%d opens)" % len(wl.open_ms + traced.open_ms + plain.open_ms))
    if na:
        note("not applicable on %s traffic: %s" % (wl.name, ", ".join(na)))
    note("bases: cache_hit_ratio=%d hits / %d lookups; active_ratio=%d active / %d registry cells; "
         "stream_rebuild_ratio=%d rebuilds / %d appends; log bytes over %d appends; "
         "per-query layers over %d queries, per-engine layers over %d engines; "
         "result cache %d bytes resident at the end, %d evictions"
         % (hits, hits + misses, counts["active_cells"], counts["registry_cells"],
            counts["rebuilds"], counts["appends"], counts["appends"], queries, engines,
            after["cache_bytes"], after["evictions"] - before["evictions"]))
    note("span samples (traced phase): " + ", ".join(
        "%s=%d" % (k, len(v)) for k, v in sorted(spans.items())))
    note("tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms (%d / %d samples)"
         % (pct(traced.latencies, 50), pct(plain.latencies, 50), len(traced.latencies),
            len(plain.latencies)))
    engine_self = {n: layers[n]["self_ms"] for n in ENGINE_LAYERS if n in layers}
    top = max(engine_self, key=engine_self.get)
    note("largest engine-layer self time: %s (%.3f ms of %.3f ms engine self time)"
         % (top, engine_self[top], sum(engine_self.values())))
    return {k: (v, LAYER_UNITS[k]) for k, v in m.items()}


# ---------------------------------------------------------------- main ---

def timed_setup(wl, serve, work):
    """Launch + register (+ engine warm-up): returns (server, seconds)."""
    t0 = time.perf_counter()
    server = Server(serve, wl.server_args, work)
    server.start()
    try:
        conn = Conn(server.port)
        wl.setup(conn)
        elapsed = time.perf_counter() - t0
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, elapsed


def make_clients(wl, deadline, warm, state, min_cycles=1):
    if wl.name == "cold_liquor":
        q = wl.cold_queue(deadline, warm, min_cycles)
        return [wl.cold_client(c, q) for c in range(wl.clients)]
    if wl.name == "hot_explore":
        return [wl.hot_client(c, deadline, state["pool"], state["hot"][c])
                for c in range(wl.clients)]
    return [wl.stream_client(c, deadline, state["days"], state["sessions"])
            for c in range(wl.clients)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (the benchmark's own test); not for measurement")
    args = ap.parse_args()
    # The client's objects hold no reference cycles; without collector
    # pauses its timestamps carry no client-side stalls.
    gc.disable()

    serve, probe = build()
    work = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, serve, probe, work)
    finally:
        for p in sorted(work.rglob("*"), reverse=True):
            p.rmdir() if p.is_dir() else p.unlink()
        work.rmdir()


def measure(args, serve, probe, work):
    rc, out, err = run_probe(probe, ["gen", "--seed", str(args.seed), "--dir", str(work)]
                             + (["--tiny"] if args.tiny else []))
    if rc != 0:
        fail("input generation failed: " + err)
    inputs = json.loads(out)
    wl = Workload(args.workload, args.seed, work)

    # Set-up, several times; the last server stays up for the traffic.
    setups = []
    server = None
    for i in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, secs = timed_setup(wl, serve, work)
        setups.append(secs)
    try:
        return traffic(args, wl, server, probe, work, inputs, setups)
    finally:
        server.stop()


def traffic(args, wl, server, probe, work, inputs, setups):
    conn = Conn(server.port)
    state = must(conn.call({"op": "state"}), "state")
    build_info = state.get("build", {})
    client_state = {}
    if wl.name == "hot_explore":
        client_state["pool"] = wl.hot_spec_pool()
        client_state["hot"] = [{"rng": random.Random("%d/hot/%d" % (args.seed, c)), "n": 0,
                                "issued": []} for c in range(wl.clients)]
    if wl.name == "stream_append":
        client_state["days"] = wl.stream_days()
        client_state["sessions"] = wl.sessions

    seconds = args.seconds
    warm = Phase("warm-up")
    drive(server.port, make_clients(wl, time.perf_counter() + min(1.0, seconds / 4), True, client_state),
          warm)
    wl.reset(conn)
    before = stats_of(conn)

    sample_every = {"cold_liquor": 0.05, "hot_explore": 0.004, "stream_append": 0.02}[wl.name]
    phases = []
    monitor = None
    if args.trace:
        # Untraced then traced halves of the same traffic: their difference
        # is the tracing overhead.
        plain = Phase("timed-untraced")
        drive(server.port, make_clients(wl, time.perf_counter() + seconds / 2, False, client_state),
              plain, keep=wl.keeper(sample_every, traced=False))
        phases.append(plain)
        wl.reset(conn)
        monitor = Monitor(server.port)
        timed = Phase("timed-traced")
        drive(server.port, make_clients(wl, time.perf_counter() + seconds / 2, False, client_state),
              timed, trace=True, keep=wl.keeper(sample_every, traced=True))
        monitor.stop()
        phases.append(timed)
    else:
        timed = Phase("timed")
        drive(server.port, make_clients(wl, time.perf_counter() + seconds, False, client_state,
                                        COLD_MIN_CYCLES), timed, keep=wl.keeper(sample_every, traced=False))
        phases.append(timed)
    after = stats_of(conn)
    peak_rss = server.peak_rss_mb()
    conn.close()

    # Stamp and counts.
    note("workload=%s seed=%d seconds=%g trace=%d" % (wl.name, args.seed, seconds, args.trace))
    note("host=%s nproc=%d sha=%s simd=%s pool_size=%s server_git_sha=%s" % (
        socket.gethostname(), NPROC, source_stamp(), build_info.get("simd"),
        build_info.get("threads"), build_info.get("git_sha")))
    note("clients: cold_liquor=%d hot_explore=%d stream_append=%d (closed loop; this run: %d)" % (
        clients_for("cold_liquor"), clients_for("hot_explore"), clients_for("stream_append"),
        wl.clients))
    note("inputs: " + json.dumps(inputs, separators=(",", ":")))
    if wl.name == "stream_append":
        note("session logs on; flush policy: " + SESSION_LOG_FLUSH)
    for ph in [warm] + phases:
        note(ph.summary())

    n_checked, mismatches = run_oracle(probe, work, wl.kept, "t%d" % args.trace)
    note("oracle: %d sampled responses over %d distinct engine keys checked against in-process "
         "TSExplain::Run / StreamingTSExplain: %d mismatches"
         % (n_checked, len({k for _, _, k in wl.kept}), len(mismatches)))
    for m in mismatches[:10]:
        note("MISMATCH " + m)

    attempted = sum(p.sent for p in phases)
    failed = sum(p.failed + p.shed + p.malformed for p in phases)
    malformed = sum(p.malformed for p in phases)
    correct = not mismatches and malformed == 0

    if not args.trace:
        lat = timed.latencies
        if not lat:
            fail("no request completed in the timed phase")
        p50, p90, windows = windowed(timed, seconds)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "throughput_rps": (throughput(timed), "1/s"),
            "success_frac": (timed.succeeded / max(1, timed.sent), "ratio"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        note("latency samples=%d in %d windows (p50/p90 are window medians; whole phase: "
             "p50 %.4f ms, p90 %.4f ms); setup runs=%d %s" % (
                 len(lat), windows, pct(lat, 50), pct(lat, 90), len(setups),
                 ["%.4f" % s for s in setups]))
        note("error_frac=%.6f (base: %d requests attempted in the timed phase)" % (
            (timed.sent - timed.succeeded) / max(1, timed.sent), timed.sent))
    else:
        metrics = layer_metrics(wl, probe, work, phases, before, after, monitor)
        if metrics is None:
            correct = False
            metrics = {}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
