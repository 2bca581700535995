"""Training loop: losses, gradient flow, masking statistics, determinism."""
import hashlib
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefdiff import autodiff as ad
from prefdiff.config import RunConfig
from prefdiff.data import make_domain, split_cold_start, user_universe
from prefdiff.errors import ConfigurationError
from prefdiff.encoder import encode_history
from prefdiff.params import ModelMeta, ModelParams, init_params, save_checkpoint
from prefdiff.rng import make_rng
from prefdiff.trainer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, BatchDraws,
                              Examples, _batch_arrays, build_examples, compute_batch_loss,
                              loss_history_tsv,
                              new_trainer_state, rec_loss, sample_draws, train,
                              train_step)

from conftest import SELECTORS, central_difference, relative_error, run_configs, with_cfg


def tiny_cfg(**kw):
    defaults = dict(batch_size=4, learning_rate=0.01, epochs=2, lam=0.01,
                    p_uncond=0.1, T=5, eta=0.5, alpha_min=0.1, alpha_max=10.0,
                    d1=4, max_history_len=5, seed=3, hidden=8, mlp_layers=3,
                    enc_layers=2, init_scale=0.3, dtype="float64")
    defaults.update(kw)
    return RunConfig(**defaults)


def toy_domains(n_overlap=20, n_items_src=8, n_items_tgt=9, seed=0):
    rng = make_rng(seed, 99)
    src, tgt = [], []
    for k in range(n_overlap):
        u = f"u{k}"
        for j in rng.choice(n_items_src, size=4, replace=False):
            src.append((u, f"s{j}", 3.0, int(rng.integers(0, 100))))
        for j in rng.choice(n_items_tgt, size=3, replace=False):
            tgt.append((u, f"t{j}", float(rng.integers(1, 6)),
                        int(rng.integers(0, 100))))
    return (make_domain(*(list(col) for col in zip(*src))),
            make_domain(*(list(col) for col in zip(*tgt))))


def toy_batch(params, n=4, hist_len=3, seed=1):
    """(examples, rows): n random examples with histories of hist_len
    items, and the rows 0..n-1 that make them one batch."""
    rng = make_rng(seed, 17)
    columns = []
    for _ in range(n):
        columns.append((int(rng.integers(0, params.meta.n_users)),
                        rng.integers(0, params.meta.n_items_src, size=hist_len),
                        int(rng.integers(0, params.meta.n_items_tgt)),
                        float(rng.integers(1, 6))))
    users, histories, items, ratings = zip(*columns)
    examples = Examples(user=np.array(users), item=np.array(items),
                        rating=np.array(ratings), history_row=np.arange(n),
                        histories=np.array(histories), lengths=np.full(n, hist_len))
    return examples, np.arange(n)


def test_rec_loss_is_mse():
    pred = np.array([1.0, 2.0, 4.0])
    true = np.array([1.0, 1.0, 1.0])
    assert rec_loss(pred, true) == pytest.approx((0 + 1 + 9) / 3)


def test_batch_arrays_pads_histories_like_a_loop():
    lengths = [3, 1, 5, 2]
    histories = np.zeros((4, 7), dtype=np.int64)
    for i, n in enumerate(lengths):
        histories[i, :n] = range(10 * i + 1, 10 * i + 1 + n)
    examples = Examples(user=np.arange(4), item=np.arange(4), rating=np.arange(4.0),
                        history_row=np.array([3, 2, 1, 0]), histories=histories[::-1].copy(),
                        lengths=np.array(lengths[::-1]))
    users, hist, mask, items, ratings = _batch_arrays(examples, np.arange(4), "float32")
    # as wide as the longest history in the batch, not the table
    want_hist = np.zeros((4, 5), dtype=np.int64)
    want_mask = np.zeros((4, 5), dtype=bool)
    for i, n in enumerate(lengths):
        want_hist[i, :n] = range(10 * i + 1, 10 * i + 1 + n)
        want_mask[i, :n] = True
    assert hist.dtype == np.int64 and np.array_equal(hist, want_hist)
    assert mask.dtype == bool and np.array_equal(mask, want_mask)
    assert users.tolist() == items.tolist() == [0, 1, 2, 3]
    assert ratings.dtype == np.float32
    # a batch of short histories is cut to its own longest one
    _, hist, mask, _, _ = _batch_arrays(examples, np.array([1, 3, 1]), "float64")
    assert hist.tolist() == [[11, 0], [31, 32], [11, 0]]
    assert mask.tolist() == [[True, False], [True, True], [True, False]]


def _constant_denoiser(p, out):
    """Zero every denoiser weight so that it predicts `out` for any input."""
    for layer in range(p.meta.cfg.mlp_layers):
        p[f"den_w{layer}"].data[:] = 0.0
        p[f"den_b{layer}"].data[:] = 0.0
    p[f"den_b{p.meta.cfg.mlp_layers - 1}"].data[:] = out


def test_diffusion_loss_value(tiny_params):
    # with the prediction fixed at c, L_diff is the batch mean of
    # |c - u0|^2 for the main wiring's clean state u0, each term weighted
    # by the schedule's loss weight at its step under variance weighting
    p = tiny_params
    c = np.array([1.0, 0.0, -0.5, 2.0])
    _constant_denoiser(p, c)
    p["user_emb"].data[:] = 0.0
    p["user_emb"].data[:, :2] = [0.0, 2.0]
    s = p.schedule
    batch = toy_batch(p, n=3)
    t = np.array([1, 3, 5])
    draws = BatchDraws(r=np.ones(3), t=t,
                       eps=make_rng(9, 9).standard_normal((3, 4)))
    sq = 1.0 + 4.0 + 0.25 + 4.0
    _, report = compute_batch_loss(*batch, p, draws)
    assert report["diff"] == pytest.approx(sq, rel=1e-12)
    coefs = [s.loss_weight[tt - 1] for tt in t]
    _, report = compute_batch_loss(*batch, with_cfg(p, loss_weighting="variance_weighted"),
                                   draws)
    assert report["diff"] == pytest.approx(sq * np.mean(coefs), rel=1e-12)


def test_masking_boundary_keeps_condition_at_p_uncond(tiny_params):
    # an example's condition is dropped iff its draw r < p_uncond
    p = tiny_params
    batch = toy_batch(p, n=4)

    def run(r, p_uncond):
        draws = BatchDraws(r=np.array(r, dtype=float), t=np.full(4, 2),
                           eps=np.zeros((4, 4)))
        return compute_batch_loss(*batch, with_cfg(p, p_uncond=p_uncond), draws)[1]

    assert run([0.05, 0.1, 0.99, 0.0999], 0.1)["masked"] == 2
    assert run([0.1] * 4, 0.1)["masked"] == 0
    assert run([0.0] * 4, 0.0)["masked"] == 0
    assert run([0.999] * 4, 1.0)["masked"] == 4
    # a dropped condition no longer sees the encoder; a kept one does. The
    # query weights get a varied shift: a constant one is lost on the
    # zero-mean rows that the layer norm hands them
    dropped, kept = run([0.0] * 4, 0.5), run([0.9] * 4, 0.5)
    p["enc0_wq"].data += make_rng(0, 1).uniform(-0.5, 0.5, size=p["enc0_wq"].shape)
    assert run([0.0] * 4, 0.5)["diff"] == dropped["diff"]
    assert run([0.9] * 4, 0.5)["diff"] != kept["diff"]


def test_masking_empirical_rate(tiny_params):
    p = tiny_params
    p_uncond, n = 0.1, 20_000
    draws = sample_draws(make_rng(20, 20), n, p.meta)
    examples, rows = toy_batch(p, n=8)
    _, report = compute_batch_loss(examples, np.tile(rows, n // 8),
                                   with_cfg(p, p_uncond=p_uncond), draws)
    assert report["masked"] == int(np.sum(draws.r < p_uncond))
    sigma = math.sqrt(p_uncond * (1 - p_uncond) / n)
    assert abs(report["masked"] / n - p_uncond) < 4 * sigma


@settings(max_examples=60, deadline=None)
@given(cfg=run_configs(), seed=st.integers(0, 2**32 - 1))
def test_sample_draws_steps_are_exactly_1_to_T(cfg, seed):
    # the one source of the steps that forward_marginal, the step embedding
    # and the loss weight read in training; at T <= 4, 256 draws miss
    # a step with probability below 1e-31
    draws = sample_draws(make_rng(seed, 0), 256, ModelMeta(cfg, 3, 4, 5))
    assert set(draws.t.tolist()) == set(range(1, cfg.T + 1))


def test_config_validation():
    tiny_cfg().validate()
    for bad in (dict(lam=-0.1), dict(lam=1.5), dict(batch_size=0),
                dict(epochs=-1), dict(loss_weighting="x"), dict(p_uncond=2.0)):
        with pytest.raises(ConfigurationError):
            tiny_cfg(**bad).validate()


def test_full_model_gradients_match_finite_differences(tiny_params):
    p = with_cfg(tiny_params, lam=0.5, eta=0.5)
    batch = toy_batch(p, n=2)
    draws = sample_draws(make_rng(7, 0), 2, p.meta)

    def loss():
        total, _ = compute_batch_loss(*batch, p, draws)
        return total

    p.zero_grads()
    loss().backward()
    touched = 0
    for name in ("user_emb", "item_emb_src", "item_emb_tgt", "den_w0",
                 "den_b1", "enc0_wq", "null_token", "pos_emb"):
        analytic = p[name].grad.copy()
        numeric = central_difference(lambda: float(loss().data), p[name].data)
        assert relative_error(analytic, numeric) < 1e-4, name
        if np.abs(analytic).max() > 0:
            touched += 1
    assert touched >= 6  # the loss reaches nearly every table


def test_total_loss_linear_in_lambda(tiny_params):
    p = tiny_params
    batch = toy_batch(p, n=3)
    draws = sample_draws(make_rng(8, 0), 3, p.meta)
    totals = {}
    for lam in (0.0, 0.5, 1.0):
        total, rep = compute_batch_loss(*batch, with_cfg(p, lam=lam), draws)
        totals[lam] = float(total.data)
        assert rep["total"] == pytest.approx(rep["rec"] + lam * rep["diff"])
    diff = totals[1.0] - totals[0.0]
    assert totals[0.5] == pytest.approx(totals[0.0] + 0.5 * diff, rel=1e-9)


def test_masking_rate_in_band(tiny_params):
    p = with_cfg(tiny_params, p_uncond=0.25)
    state = new_trainer_state(0)
    batch = toy_batch(p, n=8)
    reports = [train_step(*batch, p, state) for _ in range(400)]
    masked, total = (sum(report[k] for report in reports) for k in ("masked", "batch"))
    rate = masked / total
    sigma = math.sqrt(0.25 * 0.75 / total)
    assert abs(rate - 0.25) < 4 * sigma


def test_train_step_changes_params_and_reports(tiny_params):
    p = tiny_params
    cfg = p.meta.cfg
    state = new_trainer_state(1)
    before = p["user_emb"].data.copy()
    report = train_step(*toy_batch(p), p, state)
    assert not np.array_equal(p["user_emb"].data, before)
    assert set(report) >= {"rec", "diff", "total", "masked", "batch"}
    assert report["total"] == pytest.approx(report["rec"] + cfg.lam * report["diff"])


def test_adam_first_step_is_signed_lr():
    # with fresh moments, a single update moves each coordinate by ~lr*sign(g)
    p = init_params(RunConfig(d1=2, seed=0, hidden=2, mlp_layers=2, enc_layers=1,
                              max_history_len=2, T=2, dtype="float64"), 2, 2, 2)
    g = make_rng(1, 1).standard_normal(p["user_emb"].data.shape)
    p["user_emb"].grad = g
    before = p["user_emb"].data.copy()
    AdamState().update(p, lr=0.1)
    delta = p["user_emb"].data - before
    assert np.allclose(delta, -0.1 * np.sign(g), atol=1e-6)


class _OutOfPlaceAdam(AdamState):
    """The update as first written, with new arrays at every line and the
    moments by parameter name: the reference the in-place update must
    equal bit for bit."""

    def __init__(self):
        super().__init__()
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def update(self, params, lr):
        self.step += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, tensor in params.arrays.items():
            if tensor.grad is None:
                continue
            g = tensor.grad.astype(tensor.data.dtype)
            if name not in self.m:
                self.m[name] = np.zeros_like(tensor.data)
                self.v[name] = np.zeros_like(tensor.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.step)
            v_hat = self.v[name] / (1 - b2 ** self.step)
            delta = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            tensor.data = tensor.data - delta.astype(tensor.data.dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_update_matches_out_of_place_formula_bitwise(dtype):
    runs = []
    for adam in (AdamState(), _OutOfPlaceAdam()):
        p = init_params(RunConfig(d1=4, seed=2, hidden=4, mlp_layers=2, enc_layers=1,
                                  max_history_len=3, T=3, dtype=dtype), 5, 4, 4)
        rng = make_rng(4, 4)
        for _ in range(5):
            for name, tensor in p.arrays.items():
                # float64 gradients, so a float32 model's update casts
                # them; null_token never gets one
                tensor.grad = None if name == "null_token" \
                    else rng.standard_normal(tensor.data.shape)
            adam.update(p, lr=0.05)
        runs.append((p, adam))
    (new, new_adam), (ref, ref_adam) = runs
    for name in new.arrays:
        assert new[name].data.dtype == np.dtype(dtype)
        assert new[name].data.tobytes() == ref[name].data.tobytes(), name
    # the flat moment buffers hold the reference's moments in layout order,
    # which is model order over the parameters with a gradient
    assert "null_token" not in ref_adam.m
    m, v = new_adam._flat[:2]
    assert m.tobytes() == np.concatenate(list(ref_adam.m.values()), axis=None).tobytes()
    assert v.tobytes() == np.concatenate(list(ref_adam.v.values()), axis=None).tobytes()


@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_the_wiring_fixes_which_parameters_get_gradients(variant, ablation):
    # AdamState lays out its buffers over the parameters with a gradient at
    # its first update and keeps that layout: every step gives gradients to
    # the same parameters, whether it keeps every condition or masks them all
    p = init_params(tiny_cfg(variant=variant, ablation=ablation, lam=0.0), 6, 8, 9)
    adam, live = AdamState(), set()
    for p_uncond in (0.0, 1.0):
        q = with_cfg(p, p_uncond=p_uncond)
        for seed in range(3):
            q.zero_grads()
            draws = sample_draws(make_rng(seed, 0), 6, q.meta)
            total, _ = compute_batch_loss(*toy_batch(q, n=6, seed=seed), q, draws)
            total.backward()
            live.add(frozenset(name for name, t in q.arrays.items() if t.grad is not None))
            adam.update(q, 0.01)
    assert len(live) == 1
    assert adam._flat[0].size == sum(q[name].data.size for name in next(iter(live)))


@pytest.mark.parametrize("loss_weighting", ["simplified", "variance_weighted"])
@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_every_leaf_of_the_loss_graph_is_a_parameter(variant, ablation, loss_weighting):
    # the noise term, the ratings, the masks and the loss weights stay
    # arrays: the graph's leaves are the model's parameter Tensors alone
    p = init_params(tiny_cfg(variant=variant, ablation=ablation,
                             loss_weighting=loss_weighting), 6, 8, 9)
    draws = sample_draws(make_rng(0, 0), 6, p.meta)
    total, _ = compute_batch_loss(*toy_batch(p, n=6), p, draws)
    seen, stack, leaves = {id(total)}, [total], []
    while stack:
        node = stack.pop()
        leaves += [] if node._parents else [node]
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    parameters = {id(t) for t in p.arrays.values()}
    assert leaves and all(id(leaf) in parameters for leaf in leaves)


@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_backward_functions_leave_gradients_unwritten(variant, ablation, monkeypatch):
    # Tensor.backward keeps gradient views and shares arrays between
    # gradients, so a backward function that wrote into its `g` would
    # corrupt another tensor's gradient; here every `g` is read-only
    make = ad._make

    def read_only_make(data, parents, backward_fn):
        def guarded(g):
            if isinstance(g, np.ndarray):  # numpy scalars are immutable
                g = g.view()
                g.flags.writeable = False
            return backward_fn(g)
        return make(data, parents, guarded)

    monkeypatch.setattr(ad, "_make", read_only_make)
    cfg = tiny_cfg(variant=variant, ablation=ablation)
    p = init_params(replace(cfg, seed=11, dtype="float32"), 6, 8, 9)
    draws = sample_draws(make_rng(5, 0), 6, p.meta)
    total, _ = compute_batch_loss(*toy_batch(p, n=6), p, draws)
    total.backward()
    assert p["user_emb"].grad is not None
    AdamState().update(p, 0.01)


def _graph_nodes(root):
    """Every tensor of the autodiff graph that `root` was computed from."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_a_training_step_stays_in_the_model_dtype(variant, ablation, dtype):
    # one float64 constant in the graph promotes the step after it, and
    # with it every gradient, to float64: a float32 model would then train
    # at float64 speed and scatter float64 gradients into float32 tables
    p = init_params(tiny_cfg(variant=variant, ablation=ablation, seed=11, dtype=dtype),
                    6, 8, 9)
    draws = sample_draws(make_rng(5, 0), 6, p.meta)
    total, _ = compute_batch_loss(*toy_batch(p, n=6), p, draws)
    total.backward()
    nodes = _graph_nodes(total)
    assert {node.data.dtype for node in nodes} == {np.dtype(dtype)}
    assert {node.grad.dtype for node in nodes if node.grad is not None} == {np.dtype(dtype)}
    grads = [t.grad for t in p.arrays.values() if t.grad is not None]
    assert grads and {g.dtype for g in grads} == {np.dtype(dtype)}
    assert encode_history(p["item_emb_src"].data[[1, 2, 3]], p).dtype == dtype


# worst over 30 init and batch seeds x the 10 selectors: 1.8e-7 (loss) and
# 4.3e-6 (a gradient); the bounds keep more than 10x margin over both
LOSS_BOUND_F32 = 1e-5
GRAD_BOUND_F32 = 1e-4


@pytest.mark.parametrize("variant,ablation", SELECTORS)
def test_float32_step_is_within_bound_of_float64(variant, ablation):
    # the same step at both dtypes, from one float32 init cast up and with
    # one set of draws; the gap is the rounding of float32 arithmetic alone
    cfg = tiny_cfg(variant=variant, ablation=ablation, seed=11, dtype="float32")
    p32 = init_params(cfg, 6, 8, 9)
    p64 = ModelParams({name: ad.Tensor(t.data.astype(np.float64))
                       for name, t in p32.arrays.items()},
                      replace(p32.meta, cfg=replace(cfg, dtype="float64")))
    draws = sample_draws(make_rng(5, 0), 6, p32.meta)
    batch = toy_batch(p32, n=6)
    losses = []
    for p, d in ((p32, draws), (p64, replace(draws, eps=draws.eps.astype(np.float64)))):
        total, _ = compute_batch_loss(*batch, p, d)
        total.backward()
        losses.append(float(total.data))
    assert abs(losses[0] - losses[1]) <= LOSS_BOUND_F32 * abs(losses[1])
    for name, t in p32.arrays.items():
        g32, g64 = t.grad, p64[name].grad
        assert (g32 is None) == (g64 is None), name
        if g64 is not None:
            assert np.linalg.norm(g32 - g64) <= GRAD_BOUND_F32 * np.linalg.norm(g64), name


def test_train_binds_checkpoint_to_config_and_wiring():
    src, tgt = toy_domains(n_overlap=10)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=0, eta=0.3, alpha_min=0.2, alpha_max=5.0, variant=4)
    params, _ = train(src, tgt, split, cfg)
    meta = params.meta
    assert meta.cfg == cfg
    assert (meta.cfg.eta, meta.cfg.alpha_min, meta.cfg.alpha_max) == (0.3, 0.2, 5.0)
    assert (meta.cfg.variant, meta.cfg.ablation) == (4, "none")
    # the config's wiring is trained
    assert "proj_w" in params.arrays and meta.pipeline.projection is not None


def test_build_examples_respects_split_and_histories():
    src, tgt = toy_domains(n_overlap=30)
    split = split_cold_start(src, tgt, 0.2, seed=5)
    uni = user_universe(src, tgt)
    examples = build_examples(src, tgt, split, uni, max_history_len=3)
    users = set(examples.user.tolist())
    test_idx = {uni[u] for u in split.cold_start_test}
    assert not users & test_idx
    lengths = examples.lengths[examples.history_row]
    assert len(lengths) == len(examples.item) and np.all((1 <= lengths) & (lengths <= 3))
    assert examples.histories.shape[1] == 3


@dataclass(frozen=True)
class _TrainExample:
    """One training example as an object: the form the columns replaced."""
    user_idx: int
    history: tuple[int, ...]
    target_item_idx: int
    rating: float


def _examples_per_object(source, target, split, universe, max_history_len):
    """`build_examples` as first written, through a per-user sort of the
    source ratings: the reference for the columns."""
    histories = {}
    for u in sorted(split.overlap_train):
        if u not in source.user_index:
            continue
        rows = [k for k in range(source.n_ratings) if source.users[source.user[k]] == u]
        rows.sort(key=lambda k: (source.timestamp[k], source.position[k]))
        histories[u] = tuple(int(source.item[k]) for k in rows[-max_history_len:])
    out = []
    for k in range(target.n_ratings):
        u = target.users[target.user[k]]
        if u in split.overlap_train and u in histories:
            out.append(_TrainExample(universe[u], histories[u], int(target.item[k]),
                                     float(target.rating[k])))
    return out


def _batch_arrays_per_object(batch, dtype):
    """`_batch_arrays` as first written, over example objects."""
    B = len(batch)
    lengths = np.fromiter((len(e.history) for e in batch), dtype=np.int64, count=B)
    mask = np.arange(lengths.max()) < lengths[:, None]
    hist = np.zeros(mask.shape, dtype=np.int64)
    hist[mask] = np.fromiter(chain.from_iterable(e.history for e in batch),
                             dtype=np.int64, count=int(lengths.sum()))
    users = np.array([e.user_idx for e in batch], dtype=np.int64)
    items = np.array([e.target_item_idx for e in batch], dtype=np.int64)
    ratings = np.array([e.rating for e in batch], dtype=dtype)
    return users, hist, mask, items, ratings


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_build_examples_and_batches_match_the_per_object_path_bitwise(dtype):
    # user k has k % 8 + 1 source ratings, so with max_history_len 6 the
    # histories take every length 1..6, some truncated, with timestamp ties
    rng = make_rng(3, 3)
    max_len = 6
    src, tgt = [], []
    for k in range(60):
        for j in rng.choice(20, size=k % 8 + 1, replace=False):
            src.append((f"u{k}", f"s{j}", 3.0, int(rng.integers(0, 4))))
        for j in rng.choice(15, size=int(rng.integers(1, 4)), replace=False):
            tgt.append((f"u{k}", f"t{j}", float(rng.uniform(0, 5)), 0))
    src.append(("only_src", "s0", 1.0, 0))
    tgt.append(("only_tgt", "t0", 1.0, 0))
    source = make_domain(*(list(col) for col in zip(*src[::-1])))
    target = make_domain(*(list(col) for col in zip(*tgt)))
    split = split_cold_start(source, target, 0.2, seed=4)
    universe = user_universe(source, target)
    examples = build_examples(source, target, split, universe, max_len)
    reference = _examples_per_object(source, target, split, universe, max_len)
    assert len(examples.user) == len(reference) > 0
    seen = set()
    order = rng.permutation(len(reference))
    for start in range(0, len(order), 7):
        rows = order[start:start + 7]
        got = _batch_arrays(examples, rows, dtype)
        want = _batch_arrays_per_object([reference[i] for i in rows], dtype)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        seen.update(len(reference[i].history) for i in rows)
    assert seen == set(range(1, max_len + 1))


def test_train_decreases_loss_and_is_deterministic():
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=6, batch_size=16, seed=11)
    p1, h1 = train(src, tgt, split, cfg)
    p2, h2 = train(src, tgt, split, cfg)
    assert h1 == h2
    for name in p1.arrays:
        assert np.array_equal(p1[name].data, p2[name].data)
    assert h1[-1]["total"] < h1[0]["total"]


def test_train_zero_epochs_returns_init():
    src, tgt = toy_domains(n_overlap=10)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    params, history = train(src, tgt, split, tiny_cfg(epochs=0))
    assert history == []
    assert params.meta.cfg.d1 == 4


def test_loss_history_tsv_format():
    text = loss_history_tsv([{"epoch": 1, "rec": 1.5, "diff": 0.25, "total": 1.75}])
    lines = text.strip().split("\n")
    assert lines[0] == "epoch\tL_rec\tL_diff\ttotal"
    assert lines[1].split("\t") == ["1", "1.5", "0.25", "1.75"]


# (variant, ablation, dtype) -> sha256 prefixes of (loss.tsv, params.bin) of a
# tiny two-epoch train. The float64 entry was recorded before the training
# step's scatter, gradient accumulation and Adam update were rewritten; the
# float32 entries were re-recorded when float32 models came to train in
# float32 end to end (`test_float32_step_is_within_bound_of_float64` bounds
# that move). A key's optional fourth entry is the loss weighting (default
# simplified); the variance-weighted entry was recorded before the schedule
# came to hold the loss weights. A different BLAS build may change them.
GOLDEN_TRAINS = {
    (0, "none", "float32"): ("61f9471760eef071", "5598eda88315ab5a"),
    (1, "none", "float32"): ("befeb923900c5356", "998c5fb632fbca13"),
    (2, "none", "float32"): ("6d9cdc32c4c5734d", "3448412fd1c9de20"),
    (3, "none", "float32"): ("09feb04a6b5b57f8", "a8b88f59d4172464"),
    (4, "none", "float32"): ("94058d2f683faaf0", "8aa13a57c0fff4f6"),
    (5, "none", "float32"): ("a28a40f4c4e45664", "ddd90ea4af22d310"),
    (6, "none", "float32"): ("fbedab1aca77d947", "ba17e961b98f606f"),
    (0, "no_tf", "float32"): ("6ba2dcd9856c321c", "df21df0bd3fa6283"),
    (0, "no_gs", "float32"): ("befeb923900c5356", "998c5fb632fbca13"),
    (0, "no_dm", "float32"): ("a0e0b7bbb5e63927", "5cfef43377b937e7"),
    (0, "none", "float64"): ("9fade15da39de4fa", "ba1c42bd1fb5de84"),
    (0, "none", "float32", "variance_weighted"): ("c5bbc810ac7fff65", "db27c4aac0a4dcc5"),
}


@pytest.mark.parametrize("key", list(GOLDEN_TRAINS), ids=lambda key: "-".join(map(str, key)))
def test_tiny_train_outputs_match_golden(key, tmp_path):
    variant, ablation, dtype, weighting = (*key, "simplified")[:4]
    src, tgt = toy_domains(n_overlap=25, seed=3)
    split = split_cold_start(src, tgt, 0.2, seed=1)
    cfg = tiny_cfg(epochs=2, batch_size=16, variant=variant, ablation=ablation,
                   dtype=dtype, loss_weighting=weighting)
    params, history = train(src, tgt, split, cfg)
    save_checkpoint(params, tmp_path)
    digests = (hashlib.sha256(loss_history_tsv(history).encode()).hexdigest()[:16],
               hashlib.sha256((tmp_path / "params.bin").read_bytes()).hexdigest()[:16])
    assert digests == GOLDEN_TRAINS[key]
