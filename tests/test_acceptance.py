"""Acceptance suite: one test per release criterion, one printed
PASS/FAIL line each (run with ``pytest -s`` to watch them stream).

The heavyweight criteria (overfit, multi-seed smoke training) run real
training loops and take a few minutes; everything is seeded, so results
are reproducible run to run.
"""

import time

import numpy as np
import pytest

from crnet.blocks import (
    attention_spec,
    ceb_spec,
    channel_attention,
    channel_attention_spec,
    conv_enhancement_block,
    conv_ffn,
    conv_ffn_spec,
    freq_fuse,
    freq_fuse_spec,
    frequency_separate,
    materialize,
    multi_branch_block,
    multi_branch_spec,
    window_self_attention,
)
from crnet.metrics import l1_tonemapped_loss, mu_law, psnr, psnr_mu, ssim
from crnet.model import (
    ABLATION_VARIANTS,
    CRNetConfig,
    ExposureStack,
    build_ablation_variant,
    build_params,
    count_params,
    forward,
    warp_by_flow,
)
from crnet.synth import DegradeSpec, SceneSpec, generate_sample, write_dataset
from crnet.tensor import (
    Tensor,
    avg_pool2d,
    bilinear_upsample,
    concat,
    conv2d,
    gelu,
    global_avg_pool,
    matmul,
    max_pool2d,
    mul,
    sigmoid,
    softmax,
    tabs,
    tmean,
    tsum,
)
from crnet.train import (
    TrainConfig,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)
from tests.gradcheck import finite_difference_check
from tests.test_metrics import ssim_loops
from tests.test_train import desk_model_config, desk_train_config

F64 = np.float64


def check(name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def rng_tensor(rng, shape, scale=1.0):
    return Tensor(scale * rng.normal(size=shape), dtype=F64)


# --------------------------------------------------------------------------
# Criterion 1: gradient suite (primitives, blocks, loss, full tiny forward)
# --------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    started = time.time()
    rng = np.random.default_rng(1217)
    worst: dict = {}

    def fd(tag, fn, x, limit):
        err = finite_difference_check(fn, x)
        worst[tag] = max(worst.get(tag, 0.0), err)
        assert err <= limit, f"{tag}: {err} > {limit}"

    # Primitives: 10 random tensors each at shapes <= [2, 4, 8, 8].
    shapes = [(1, 2, 4, 4), (2, 4, 8, 8), (1, 4, 6, 8), (2, 2, 6, 6), (1, 3, 8, 4)]
    for trial in range(10):
        shape = shapes[trial % len(shapes)]
        x = rng_tensor(rng, shape)
        w = rng_tensor(rng, (shape[1], shape[1], 3, 3), 0.5)
        b = rng_tensor(rng, (shape[1],), 0.5)
        fd("conv2d/input", lambda t: tmean(conv2d(t, w, b)), x, 1e-4)
        fd("conv2d/weight", lambda t: tmean(conv2d(x, t, b)), w, 1e-4)
        dw = rng_tensor(rng, (shape[1], 1, 3, 3), 0.5)
        fd("conv2d/depthwise", lambda t: tmean(conv2d(t, dw)), x, 1e-4)
        fd("avg_pool2d", lambda t: tmean(avg_pool2d(t)), x, 1e-4)
        fd("max_pool2d", lambda t: tmean(max_pool2d(t)), x, 1e-4)
        fd("bilinear_upsample", lambda t: tmean(bilinear_upsample(t)), x, 1e-4)
        fd("global_avg_pool", lambda t: tmean(global_avg_pool(t)), x, 1e-4)
        flow = rng.uniform(-1.5, 1.5, (2, shape[2], shape[3]))
        fd("warp_by_flow", lambda t: tmean(warp_by_flow(t, flow)), x, 1e-4)

        flat = rng_tensor(rng, (3, 4, 5))
        fd("gelu", lambda t: tmean(gelu(t)), flat, 1e-6)
        fd("sigmoid", lambda t: tmean(sigmoid(t)), flat, 1e-6)
        fd("softmax", lambda t: tmean(tsum(mul(softmax(t, -1), softmax(t, -1)))), flat, 1e-6)
        fd("abs", lambda t: tmean(tabs(t)), flat, 1e-6)
        fd("mul/add", lambda t: tmean(mul(t, t) + mul(t, 2.0)), flat, 1e-6)
        a = rng_tensor(rng, (2, 3, 4))
        bmat = rng_tensor(rng, (2, 4, 5))
        fd("matmul", lambda t: tmean(matmul(t, bmat)), a, 1e-6)
        other = rng_tensor(rng, (3, 4, 5))
        fd("concat", lambda t: tmean(mul(concat([t, other], axis=0), concat([other, t], axis=0))), flat, 1e-6)

    # Blocks at [1, 4, 8, 8]: input plus every parameter tensor.
    x = rng_tensor(rng, (1, 4, 8, 8))
    low = rng_tensor(rng, (1, 4, 4, 4))
    block_cases = {
        "frequency_separate": (
            {},
            lambda p: tmean(frequency_separate(x, "avg")[1] + bilinear_upsample(frequency_separate(x, "avg")[0])),
            None,
        ),
        "window_self_attention": (
            attention_spec(4),
            lambda p: tmean(window_self_attention(x, p, 2, 4)),
            lambda p, t: tmean(window_self_attention(t, p, 2, 4)),
        ),
        "multi_branch_block": (
            multi_branch_spec(4, (3, 1)),
            lambda p: tmean(multi_branch_block(x, p, (3, 1))),
            lambda p, t: tmean(multi_branch_block(t, p, (3, 1))),
        ),
        "channel_attention": (
            channel_attention_spec(4, 2),
            lambda p: tmean(channel_attention(x, p)),
            lambda p, t: tmean(channel_attention(t, p)),
        ),
        "freq_fuse": (
            freq_fuse_spec(4, 2),
            lambda p: tmean(freq_fuse(x, low, p)),
            lambda p, t: tmean(freq_fuse(t, low, p)),
        ),
        "conv_ffn": (
            conv_ffn_spec(4, "inverted", 2),
            lambda p: tmean(conv_ffn(x, p)),
            lambda p, t: tmean(conv_ffn(t, p)),
        ),
        "conv_enhancement_block": (
            ceb_spec(4, "dw7", "inverted", 2),
            lambda p: tmean(conv_enhancement_block(x, p, "dw7")),
            lambda p, t: tmean(conv_enhancement_block(t, p, "dw7")),
        ),
    }
    for name, (spec, with_params, with_input) in block_cases.items():
        params = materialize(spec, np.random.default_rng(7), F64)
        if with_input is not None:
            fd(f"{name}/input", lambda t: with_input(params, t), x, 1e-3)
        if name == "frequency_separate":
            fd(f"{name}/input", lambda t: tmean(frequency_separate(t, "avg")[1]), x, 1e-3)
        for key in spec:
            fd(
                f"{name}/{key}",
                lambda t, key=key: with_params({**params, key: t}),
                params[key],
                1e-3,
            )

    # Loss pieces (elementwise tolerances).
    positive_img = Tensor(np.random.default_rng(3).uniform(0.05, 1.0, (4, 6, 6)), dtype=F64)
    target = Tensor(np.random.default_rng(4).uniform(0.05, 1.0, (4, 6, 6)), dtype=F64)
    fd("mu_law", lambda t: tmean(mu_law(t, 5000.0)), positive_img, 1e-6)
    fd("l1_tonemapped_loss", lambda t: l1_tonemapped_loss(t, target, 5000.0), positive_img, 1e-6)

    # Full tiny forward: loss as a function of selected parameter tensors,
    # with pinned zero flows so block matching cannot flip mid-difference.
    cfg = CRNetConfig(base_channels=4, n_ceb=1, n_hfem=1, attn_window=4, attn_heads=2)
    params = {
        k: Tensor(v.data.astype(F64), requires_grad=True)
        for k, v in build_params(cfg, seed=5).items()
    }
    frame_rng = np.random.default_rng(6)
    stack = ExposureStack(
        frames=[frame_rng.uniform(0, 1, (4, 8, 8)).astype(np.float32) for _ in range(5)],
        exposure_times=np.array([1.0, 4.0, 16.0, 64.0, 256.0]),
    )
    zero_flows = [np.zeros((2, 8, 8), np.float32) for _ in range(5)]
    gt = Tensor(frame_rng.uniform(0.05, 1.0, (4, 8, 8)), dtype=F64)

    def full_loss(probe: Tensor, key: str):
        trial_params = {**params, key: probe}
        out = forward(stack, trial_params, cfg, flows=zero_flows)
        return l1_tonemapped_loss(out, gt, cfg.mu)

    probe_keys = [
        "shallow.weight",
        "reduce.weight",
        "hfem0.attn.q.weight",
        "hfem0.mbb_low1.branchA.conv0.weight",
        "hfem0.fuse.ca.fc1.weight",
        "hfem0.ceb0.ffn.fc1.weight",
        "fusion.conv0.bias",
        "head.weight",
    ]
    for key in probe_keys:
        fd(f"full_forward/{key}", lambda t, key=key: full_loss(t, key), params[key], 1e-3)

    elapsed = time.time() - started
    peak = max(worst.values())
    check(
        "gradient suite (primitives + blocks + loss + full tiny forward)",
        elapsed < 300.0,
        f"worst rel err {peak:.2e}, {len(worst)} op classes, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# Criterion 2: separation reconstruction identity
# --------------------------------------------------------------------------


def test_criterion_2_separation_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(50):
        shape = (1, int(rng.integers(1, 5)), 2 * int(rng.integers(2, 9)), 2 * int(rng.integers(2, 9)))
        x = Tensor(rng.normal(size=shape).astype(np.float32))
        kind = "avg" if trial % 2 == 0 else "max"
        low, high = frequency_separate(x, kind)
        recon = high + bilinear_upsample(low)
        worst = max(worst, float(np.abs(recon.data - x.data).max()))
    check("separation identity high + up(low) == input", worst <= 1e-6, f"max abs err {worst:.2e} over 50 tensors")


# --------------------------------------------------------------------------
# Criterion 3: metric oracles
# --------------------------------------------------------------------------


def test_criterion_3_metric_oracles():
    endpoints = mu_law(Tensor(np.array([0.0, 1.0]), dtype=F64), 5000.0).data
    ok_t = endpoints[0] == 0.0 and endpoints[1] == 1.0

    twenty = psnr(np.zeros((10, 10)), np.full((10, 10), 0.1))
    ok_psnr = abs(twenty - 20.0) < 1e-12

    x = np.random.default_rng(9).uniform(0, 1, (16, 16))
    ok_self = abs(ssim(x, x) - 1.0) <= 1e-9

    oracle_rng = np.random.default_rng(1217)
    a = oracle_rng.uniform(0, 1, (16, 16))
    b = np.clip(a + oracle_rng.normal(0, 0.1, (16, 16)), 0, 1)
    delta = abs(ssim(a, b) - ssim_loops(a, b))
    ok_oracle = delta <= 1e-6

    check(
        "metric oracles (T endpoints, 20 dB PSNR, SSIM self=1, SSIM vs direct formula)",
        ok_t and ok_psnr and ok_self and ok_oracle,
        f"ssim oracle delta {delta:.2e}",
    )


# --------------------------------------------------------------------------
# Criterion 4: zero-init residual identity
# --------------------------------------------------------------------------


def test_criterion_4_zero_init_identity():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32))

    def zeros(spec):
        return {k: Tensor(np.zeros(s, np.float32), requires_grad=True) for k, s in spec.items()}

    outputs = {
        "window_self_attention": window_self_attention(x, zeros(attention_spec(4)), 2, 4),
        "multi_branch_block(3,1)": multi_branch_block(x, zeros(multi_branch_spec(4, (3, 1))), (3, 1)),
        "multi_branch_block(4,0)": multi_branch_block(x, zeros(multi_branch_spec(4, (4, 0))), (4, 0)),
        "conv_ffn": conv_ffn(x, zeros(conv_ffn_spec(4, "inverted", 4))),
        "conv_enhancement_block": conv_enhancement_block(x, zeros(ceb_spec(4, "dw7", "inverted", 4)), "dw7"),
    }
    bad = [name for name, out in outputs.items() if not np.array_equal(out.data, x.data)]
    check("zero-init residual blocks are bit-exact identities", not bad, f"failed: {bad}" if bad else "5 blocks")


# --------------------------------------------------------------------------
# Criterion 5: ablation parity and trainability
# --------------------------------------------------------------------------


def test_criterion_5_ablation_parity_and_training():
    base = desk_model_config()
    counts = {split: count_params(desk_model_config(mbb_split=split)) for split in [(3, 1), (2, 2), (4, 0)]}
    parity = len(set(counts.values())) == 1

    dataset = [generate_sample(SceneSpec(seed=900 + i, size=(32, 32)), DegradeSpec()) for i in range(2)]
    trained = []
    for name in ABLATION_VARIANTS:
        variant_cfg, params = build_ablation_variant(name, base, seed=0)
        out = forward(dataset[0].stack, params, variant_cfg)
        assert out.shape == (4, 32, 32)
        tcfg = desk_train_config(epochs=10, batch=1, seed=0, initial_lr=1e-3, augment=False)
        _, history = train(dataset, variant_cfg, tcfg, params)
        assert len(history) == 20, f"{name}: expected 20 steps, got {len(history)}"
        assert all(np.isfinite(h.loss) for h in history), name
        trained.append(name)

    check(
        "ablation parity + all 9 variants run 20 training steps",
        parity and len(trained) == 9,
        f"split counts {sorted(set(counts.values()))}, variants {len(trained)}/9",
    )


# --------------------------------------------------------------------------
# Criterion 6: single-sample overfit
# --------------------------------------------------------------------------


def test_criterion_6_overfit_psnr_mu():
    # Pre-registered target: >= 30 dB PSNR-mu within 2000 steps on one
    # synthetic sample at desk scale (validated at 32.7 dB on the first
    # full run of this exact configuration).
    started = time.time()
    cfg = desk_model_config()
    sample = generate_sample(SceneSpec(seed=11, size=(32, 32)), DegradeSpec())
    tcfg = desk_train_config(
        epochs=2000,
        batch=1,
        seed=3,
        initial_lr=3e-3,
        weight_decay=0.0,
        augment=False,
        lr_step_epochs=10**9,
    )
    params = build_params(cfg, seed=0)
    params, history = train([sample], cfg, tcfg, params)
    assert len(history) == 2000
    prediction = forward(sample.stack, params, cfg)
    score = psnr_mu(prediction.data, sample.ground_truth)
    elapsed = time.time() - started
    check(
        "overfit: one sample reaches PSNR-mu >= 30 dB within 2000 steps",
        score >= 30.0 and elapsed < 900.0,
        f"{score:.2f} dB in {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# Criterion 7: smoke training across seeds
# --------------------------------------------------------------------------


def test_criterion_7_smoke_training_across_seeds():
    cfg = desk_model_config()
    dataset = [generate_sample(SceneSpec(seed=100 + i), DegradeSpec()) for i in range(16)]
    passed = 0
    ratios = []
    for seed in range(10):
        tcfg = desk_train_config(epochs=13, batch=1, seed=seed, initial_lr=1e-3)
        params = build_params(cfg, seed=seed)
        _, history = train(dataset, cfg, tcfg, params)
        history = history[:200]
        assert len(history) == 200
        first = float(np.mean([h.loss for h in history[:10]]))
        last = float(np.mean([h.loss for h in history[-10:]]))
        ratios.append(last / first)
        if last <= 0.5 * first:
            passed += 1
    check(
        "smoke training: 16 samples, 200 steps, final loss <= 50% of start",
        passed >= 9,
        f"{passed}/10 seeds, ratios {min(ratios):.2f}..{max(ratios):.2f}",
    )


# --------------------------------------------------------------------------
# Criterion 8: determinism & persistence
# --------------------------------------------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    cfg = desk_model_config()
    dataset = [generate_sample(SceneSpec(seed=500 + i, size=(32, 32)), DegradeSpec()) for i in range(2)]

    def run_once():
        params = build_params(cfg, seed=8)
        return train(dataset, cfg, desk_train_config(epochs=3, batch=1, seed=8), params)

    params_a, hist_a = run_once()
    params_b, hist_b = run_once()
    repro = [h.loss for h in hist_a] == [h.loss for h in hist_b] and all(
        np.array_equal(params_a[k].data, params_b[k].data) for k in params_a
    )

    from crnet.train import init_optim_state

    ckpt = tmp_path / "ckpt.crt1a"
    save_checkpoint(ckpt, params_a, init_optim_state(params_a, desk_train_config()))
    loaded, _ = load_checkpoint(ckpt, cfg)
    stack = dataset[0].stack
    roundtrip = np.array_equal(forward(stack, params_a, cfg).data, forward(stack, loaded, cfg).data)

    samples = [generate_sample(SceneSpec(seed=77, size=(32, 32)), DegradeSpec())]
    write_dataset(samples, tmp_path / "d1")
    write_dataset(samples, tmp_path / "d2")
    gen_bytes = (tmp_path / "d1" / "sample00000.crt1a").read_bytes() == (
        tmp_path / "d2" / "sample00000.crt1a"
    ).read_bytes()

    check(
        "determinism: seeded training, checkpoint round-trip, dataset bytes",
        repro and roundtrip and gen_bytes,
        f"train={repro} ckpt={roundtrip} data={gen_bytes}",
    )


# --------------------------------------------------------------------------
# Criterion 9: training recipe conformance
# --------------------------------------------------------------------------


def test_criterion_9_lr_schedule_values():
    cfg = TrainConfig()
    values = (lr_at(0, cfg), lr_at(80, cfg), lr_at(160, cfg))
    ok = values == (1e-4, 5e-5, 2.5e-5) and lr_at(79, cfg) == 1e-4
    check("lr schedule at epochs 0/80/160 = 1e-4 / 5e-5 / 2.5e-5", ok, f"got {values}")
