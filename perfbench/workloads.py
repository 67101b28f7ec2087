"""The benchmark's workloads: set-up, the timed closed loop, and checks.

A workload is one set of inputs, all generated from the run's seed; the
engine receives only those inputs. Every loop is closed: the next unit
starts when the previous one has returned. A training unit is one
optimizer step, delimited by the returns of ``crnet.train.adamw_step``
(the only hook in an untraced run); an evaluation unit is one
``evaluate()`` call on one sample.

The engine is reached only through the public functions of its
modules, loaded with ``importlib.import_module`` so that ``crnet.train``
is the module even while the package re-exports a function of that
name.
"""

from __future__ import annotations

import importlib
import math
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import checks
from tracer import Rebinder, Tracer

perf = time.perf_counter

model = importlib.import_module("crnet.model")
metrics = importlib.import_module("crnet.metrics")
synth = importlib.import_module("crnet.synth")
tensor = importlib.import_module("crnet.tensor")
train_mod = importlib.import_module("crnet.train")

# Top-level spans of a training step other than data and checkpoints.
CORE_SPANS = ("model.forward_batch", "metrics.l1_tonemapped_loss", "tensor.backward", "train.adamw_step")
# Set-up runs this many times per run; setup_s is the median.
SETUP_REPS = 5
# Parameters are the model, fixed across seeds; the seed picks the data.
# Seeding them too multiplied the spread of quality_loss across seeds by
# three to five.
PARAMS_SEED = 0

DESK = {"base_channels": 8, "n_ceb": 2, "n_hfem": 1, "attn_heads": 2}


@dataclass(frozen=True)
class Spec:
    kind: str  # "train" or "eval"
    model: dict  # CRNetConfig overrides
    samples: int
    size: int  # square sample extent, pixels
    crop: int = 0
    batch: int = 1
    # Largest relative error of the float32 prediction and loss against
    # a float64 re-run (checks.fp32_agreement), and of the median
    # parameter gradient (checks.grad_agreement). The desk model stays
    # at or below 1.1e-6 on both (seeds 1-60 of train_desk and 1-40 of
    # eval_desk128).
    fp32_tol: float = 1e-5
    grad_tol: float = 1e-5

    @property
    def steps(self) -> int:
        return max(1, self.samples // self.batch)


SPECS = {
    # 16 steps per train() call: many small steps, so per-op overhead,
    # flow estimation and scatter-adds count. 32 distinct samples rather
    # than 16 seen twice keep quality_loss steady across seeds.
    "train_desk": Spec("train", DESK, samples=32, size=64, crop=32, batch=2),
    # 3 steps per train() call on the full 3,649,844-parameter model, so
    # wide convolutions and GELU dominate and a 44 MB checkpoint is
    # written at the end of each call. 32 px: a 64 px step peaks at 6.8 GB.
    # At initialisation its 30 residual blocks amplify activations to
    # 1e10-1e12, so over seeds 1-47 float32 drifts from float64 by up to
    # 2.9e-3 in the prediction, 6.7e-4 in the loss and 0.015 in the
    # median gradient; the tolerances are three to four times that.
    "train_full32": Spec("train", {}, samples=3, size=64, crop=32, batch=1, fp32_tol=1e-2, grad_tol=0.06),
    # Forward only, no backward: SSIM and the retained inference graph
    # show here and only here.
    "eval_desk128": Spec("eval", DESK, samples=8, size=128),
}


@dataclass
class Result:
    setup_s: list = field(default_factory=list)
    units: list = field(default_factory=list)  # untraced unit durations, s
    traced_units: list = field(default_factory=list)
    top_level: list = field(default_factory=list)  # per traced unit: top-level span s
    core: list = field(default_factory=list)  # per traced step: forward+loss+backward+optimizer s
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    samples: int = 0  # samples through the timed train()/evaluate() calls
    busy_s: float = 0.0  # wall time of those calls
    quality_loss: float = math.nan
    peak_rss_mb: float = math.nan
    layers_setup: Optional[dict] = None
    layers_timed: Optional[dict] = None
    tracer: Optional[Tracer] = None

    def record(self, attempted: int, failures: list) -> None:
        self.attempted += attempted
        if failures:
            self.failed += attempted
            self.failures.extend(failures)


def make_samples(spec: Spec, seed: int):
    return [
        synth.generate_sample(
            synth.SceneSpec(seed=seed * 10_000 + i, size=(spec.size, spec.size)), synth.DegradeSpec()
        )
        for i in range(spec.samples)
    ]


def clone(params: dict) -> dict:
    return {k: tensor.Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}


def as_float64(params: dict, requires_grad: bool = False) -> dict:
    return {k: tensor.Tensor(p.data.astype(np.float64), requires_grad=requires_grad) for k, p in params.items()}


def vjp(pred, params: dict, cotangent: np.ndarray) -> dict:
    """Parameter gradients of sum(pred * cotangent)."""
    tensor.tsum(tensor.mul(pred, tensor.Tensor(cotangent.astype(pred.data.dtype)))).backward()
    return {k: p.grad for k, p in params.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Capture:
    """Records through rebound wrappers what the first forward computed.

    Block matching picks integer offsets, so a float64 re-run could pick
    a different offset on a near-tie; the re-run is given these flows.
    """

    def __init__(self):
        self.frame_flows: list = []  # per aligned frame, the [B, 2, H, W] field warp_by_flow was given
        self.stacks = None
        self.prediction = None
        self.target = None
        self.loss = None

    def flows(self) -> list:
        """Per sample, as forward_batch takes them: None for the reference frame, then one field per frame."""
        return [[None] + [f[b] for f in self.frame_flows] for b in range(len(self.frame_flows[0]))]

    def install(self, rb: Rebinder, step: bool) -> None:
        warp = model.warp_by_flow

        def warp_by_flow(feature, flow):
            if self.prediction is None:
                self.frame_flows.append(np.array(flow, copy=True))
            return warp(feature, flow)

        rb.replace(warp, warp_by_flow)
        if not step:
            return
        forward_batch = train_mod.forward_batch
        loss_fn = train_mod.l1_tonemapped_loss

        def forward_capture(stacks, *args, **kwargs):
            out = forward_batch(stacks, *args, **kwargs)
            if self.prediction is None:
                self.stacks = list(stacks)
                self.prediction = out.data.copy()
            return out

        def loss_capture(prediction, target, *args, **kwargs):
            out = loss_fn(prediction, target, *args, **kwargs)
            if self.loss is None:
                self.target = target.data.copy()
                self.loss = out.item()
            return out

        rb.replace(forward_batch, forward_capture)
        rb.replace(loss_fn, loss_capture)


class Workload:
    """Set-up repeated SETUP_REPS times, the timed loop, then the float64 check."""

    def __init__(self, name: str, seed: int, tmp):
        self.spec = SPECS[name]
        self.seed = seed
        self.tmp = tmp
        self.cfg = model.CRNetConfig(**self.spec.model)

    rounds_per_pass = 1

    def run(self, seconds: float, trace: bool) -> Result:
        res = Result()
        tracer = Tracer() if trace else None
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            t0 = perf()
            with tracer if (trace and last) else nullcontext():
                self.setup(rep, capture=last)
            res.setup_s.append(perf() - t0)
        if trace:
            res.layers_setup = tracer.snapshot()
            tracer.reset_totals()
        self.prepare()
        self.loop(seconds, tracer, res)
        if trace:
            res.layers_timed = tracer.snapshot()
            res.tracer = tracer
        # The float64 re-run comes last, so that its memory stays out of peak_rss_mb.
        res.peak_rss_mb = peak_rss_mb()
        res.record(1, self.check())
        return res

    def prepare(self) -> None:
        """Untimed work the loop needs before it starts."""

    def loop(self, seconds: float, tracer: Optional[Tracer], res: Result) -> None:
        passes = 2 if tracer is not None else 1
        min_rounds = self.rounds_per_pass * passes
        start = perf()
        r = 0
        while True:
            traced = tracer is not None and (r // self.rounds_per_pass) % 2 == 1
            t0 = perf()
            first_span = len(tracer.spans) if traced else 0
            if traced:
                tracer.install()
            try:
                bounds = self.round(r, res)
            finally:
                if traced:
                    tracer.uninstall()
            durations = [float(d) for d in np.diff(bounds)]
            if traced:
                res.traced_units += durations
                self.split_top_level(tracer.top_level_since(first_span), bounds, res)
            else:
                res.units += durations
            r += 1
            now = perf()
            if r >= min_rounds and (now - start) + (now - t0) > seconds:
                break

    @staticmethod
    def split_top_level(spans, bounds, res: Result) -> None:
        """Sum top-level spans per unit, assigning each by its start time."""
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            inside = [(name, t1 - t0) for name, t0, t1 in spans if lo <= t0 < hi]
            res.top_level.append(sum(d for _, d in inside))
            res.core.append(sum(d for name, d in inside if name in CORE_SPANS))


class TrainWorkload(Workload):
    def train_config(self):
        s = self.spec
        return train_mod.TrainConfig(crop=s.crop, epochs=1, batch=s.batch, seed=self.seed)

    def setup(self, rep: int, capture: bool) -> None:
        self.samples = make_samples(self.spec, self.seed)
        self.init = model.build_params(self.cfg, seed=PARAMS_SEED)
        self.capture = Capture()
        with Rebinder() as rb:
            if capture:
                self.capture.install(rb, step=True)
            # Warm-up: one step on the first batch, checkpoint included.
            train_mod.train(
                self.samples[: self.spec.batch],
                self.cfg,
                self.train_config(),
                clone(self.init),
                out_dir=self.tmp / f"warmup{rep}",
            )

    def forward(self, params: dict):
        """The warm-up step's forward with its flows."""
        return model.forward_batch(self.capture.stacks, params, self.cfg, flows=self.capture.flows())

    def reference(self):
        """The warm-up step re-run: float64 prediction and loss, then parameter
        gradients in float32 and in float64 under one fixed cotangent."""
        cap = self.capture
        params64 = as_float64(self.init, requires_grad=True)
        pred64 = self.forward(params64)
        target = tensor.Tensor(cap.target.astype(np.float64))
        loss64 = metrics.l1_tonemapped_loss(pred64, target, self.cfg.mu).item()
        cotangent = checks.clamp_free_cotangent(cap.prediction, pred64.data)
        grads64 = vjp(pred64, params64, cotangent)
        params32 = clone(self.init)
        grads32 = vjp(self.forward(params32), params32, cotangent)
        return pred64.data, loss64, grads32, grads64

    def check(self) -> list:
        cap = self.capture
        if cap.prediction is None or cap.loss is None:
            return ["the warm-up step's forward and loss were not captured"]
        pred64, loss64, grads32, grads64 = self.reference()
        agreement = checks.fp32_agreement(cap.prediction, pred64, cap.loss, loss64, tol=self.spec.fp32_tol)
        return agreement + checks.grad_agreement(grads32, grads64, tol=self.spec.grad_tol)

    def loop(self, seconds, tracer, res) -> None:
        self.ticks = []
        original = train_mod.adamw_step

        def ticking(*args, **kwargs):
            out = original(*args, **kwargs)
            self.ticks.append(perf())
            return out

        with Rebinder() as rb:
            rb.replace(original, ticking)
            super().loop(seconds, tracer, res)

    def round(self, r: int, res: Result) -> list:
        expected = self.spec.steps
        params = clone(self.init)
        self.ticks.clear()
        t0 = perf()
        try:
            _, history = train_mod.train(
                self.samples, self.cfg, self.train_config(), params, out_dir=self.tmp / "run"
            )
            losses = [row.loss for row in history]
            failures = checks.training_round(losses, len(self.ticks), expected)
        except train_mod.NumericError as exc:
            losses, failures = [], [str(exc)]
        t1 = perf()
        res.record(expected, failures)
        res.samples += expected * self.spec.batch
        res.busy_s += t1 - t0
        if r == 0 and not failures:
            res.quality_loss = float(np.mean(losses))
        return [t0] + self.ticks


class EvalWorkload(Workload):
    @property
    def rounds_per_pass(self) -> int:
        return self.spec.samples

    def setup(self, rep: int, capture: bool) -> None:
        root = self.tmp / f"setup{rep}"
        synth.write_dataset(make_samples(self.spec, self.seed), root / "data")
        self.dataset = synth.read_dataset(root / "data")
        params = model.build_params(self.cfg, seed=PARAMS_SEED)
        state = train_mod.init_optim_state(params, train_mod.TrainConfig())
        train_mod.save_checkpoint(root / "params.crt1a", params, state)
        self.params, _ = train_mod.load_checkpoint(root / "params.crt1a", self.cfg)
        train_mod.evaluate(self.dataset[:1], self.params, self.cfg)  # warm-up
        self.first_pass = []

    def prepare(self) -> None:
        """Forward the first sample in float32, recording its flows and report."""
        _, sample = self.dataset[0]
        self.capture = Capture()
        with Rebinder() as rb:
            self.capture.install(rb, step=False)
            self.prediction = model.forward(sample.stack, self.params, self.cfg).data
        self.reference_report = metrics.compute_report(self.prediction, sample.ground_truth, self.cfg.mu)

    def check(self) -> list:
        """The first sample's float32 forward against float64 with the same flows."""
        _, sample = self.dataset[0]
        flows = self.capture.flows()[0]
        pred64 = model.forward(sample.stack, as_float64(self.params), self.cfg, flows=flows).data
        agreement = checks.fp32_agreement(self.prediction, pred64, tol=self.spec.fp32_tol)
        return agreement + checks.eval_report(self.reference_report)

    def round(self, r: int, res: Result) -> list:
        index = r % self.spec.samples
        t0 = perf()
        reports, _ = train_mod.evaluate([self.dataset[index]], self.params, self.cfg)
        t1 = perf()
        report = reports[0][1]
        failures = checks.eval_report(report)
        if index == 0:
            failures += checks.same_report(report, self.reference_report)
        res.record(1, failures)
        res.samples += 1
        res.busy_s += t1 - t0
        if r < self.spec.samples:
            self.first_pass.append(1.0 - report.ssim_mu)
            if len(self.first_pass) == self.spec.samples:
                res.quality_loss = float(np.mean(self.first_pass))
        return [t0, t1]


def make(name: str, seed: int, tmp) -> Workload:
    cls = TrainWorkload if SPECS[name].kind == "train" else EvalWorkload
    return cls(name, seed, tmp)
