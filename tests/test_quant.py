"""Fixed-point inference: rounding primitives against exact-arithmetic
oracles, the planned integer path against an op-by-op reference,
bit-exactness, deviation bounds and file round trips.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonmpc.errors import ArgumentError, QuantizationError
from resonmpc.policy import forward_batch, init_network
from resonmpc.quant import (
    BLOCK_ROWS,
    TANH_FRAC,
    TANH_RANGE,
    TANH_TABLE_SIZE,
    QuantizedNetwork,
    _build_tanh_table,
    _frac_bits,
    _forward_q_core,
    _preact_fracs,
    _quantize_array,
    _rne_shift,
    _tanh_words,
    forward_q,
    forward_q_batch,
    load_quantized,
    quantization_report,
    quantize,
    save_quantized,
)


def small_qnet(seed=0):
    net = init_network(seed=seed)
    rng = np.random.default_rng(seed)
    calib = np.column_stack([
        rng.uniform(-150, 150, 500),
        rng.uniform(-2000, 2000, 500),
        rng.uniform(0, 3000, 500),
    ])
    return net, calib, quantize(net, calib)


def ref_rne_rshift(v, shift):
    """Reference round-to-nearest-even shift: compare the dropped bits with half."""
    if shift <= 0:
        return v << (-shift)
    half = np.int64(1) << (shift - 1)
    mask = (np.int64(1) << shift) - 1
    q = v >> shift
    r = v & mask
    up = (r > half) | ((r == half) & ((q & 1) == 1))
    return q + up.astype(np.int64)


def ref_saturate(v):
    limit = np.int64(2**15 - 1)
    clipped = np.clip(v, -limit - 1, limit)
    return clipped, int(np.count_nonzero(clipped != v))


def ref_tanh_lookup(x_words, frac, table):
    """Reference activation: integer interpolation into the table, clamped outside."""
    lo = -(np.int64(TANH_RANGE) << frac)
    span = np.int64(2 * TANH_RANGE) << frac
    num = (x_words - lo) * np.int64(TANH_TABLE_SIZE - 1)
    idx = num // span
    below = idx < 0
    above = idx >= TANH_TABLE_SIZE - 1
    idx = np.clip(idx, 0, TANH_TABLE_SIZE - 2)
    rem = num - idx * span
    y0 = table[idx]
    y1 = table[idx + 1]
    y = y0 + ((y1 - y0) * rem) // span
    y = np.where(below, table[0], y)
    y = np.where(above, table[-1], y)
    return y


def ref_forward_q_core(qnet, x):
    """Reference integer forward pass, every constant worked out per call and op by op."""
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    xn = 2.0 * (x - qnet.input_lo) / (qnet.input_hi - qnet.input_lo) - 1.0
    limit = np.int64(2**15 - 1)
    a = np.clip(np.rint(xn * 2**qnet.input_frac), -limit - 1, limit).astype(np.int64)
    a_frac = qnet.input_frac
    for l in range(qnet.n_layers):
        w = qnet.weight_words[l]
        acc_frac = qnet.weight_fracs[l] + a_frac
        acc = a @ w.T
        bias = qnet.bias_words[l] << max(0, acc_frac - qnet.bias_fracs[l])
        if acc_frac < qnet.bias_fracs[l]:
            bias = ref_rne_rshift(qnet.bias_words[l], qnet.bias_fracs[l] - acc_frac)
        acc = acc + bias
        z = ref_rne_rshift(acc, acc_frac - qnet.preact_fracs[l])
        z, saturations = ref_saturate(z)
        if l < qnet.n_layers - 1:
            a = ref_tanh_lookup(z, qnet.preact_fracs[l], qnet.tanh_table)
            a_frac = TANH_FRAC
        else:
            a = z
            a_frac = qnet.preact_fracs[l]
    y = a.astype(float) / float(2**a_frac)
    center = 0.5 * (qnet.output_lo + qnet.output_hi)
    half = 0.5 * (qnet.output_hi - qnet.output_lo)
    u = np.clip(center + half * y, qnet.output_lo, qnet.output_hi)
    return u, saturations


def wide_box_points(n, seed, widen=3.0):
    """Inputs from the sampling box widened `widen` times about its centre."""
    lo = np.array([-150.0, -2000.0, 0.0])
    hi = np.array([150.0, 2000.0, 4000.0])
    c, h = 0.5 * (lo + hi), 0.5 * widen * (hi - lo)
    return np.random.default_rng(seed).uniform(c - h, c + h, size=(n, 3))


class TestRounding:
    @given(st.integers(-(2**53) + 1, 2**53 - 1), st.integers(1, 20))
    @settings(max_examples=300, deadline=None)
    def test_rshift_matches_rational_round_half_even(self, v, s):
        # oracle: exact rational division rounded half-to-even, on every
        # integer float64 holds exactly
        got = int(_rne_shift(np.array([v], dtype=float), s)[0])
        exact = Fraction(v, 2**s)
        floor = exact.numerator // exact.denominator
        frac = exact - floor
        if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and floor % 2 == 1):
            floor += 1
        assert got == floor

    def test_rshift_negative_shift_is_left_shift(self):
        v = np.array([3.0, -5.0])
        np.testing.assert_array_equal(_rne_shift(v.copy(), -2), v * 4)

    @given(st.floats(-1e4, 1e4, allow_nan=False), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_quantize_array_round_half_even(self, x, frac):
        scaled = x * 2**frac
        if abs(scaled) >= 2**15 - 1:
            return
        got = int(_quantize_array(np.array([x]), frac)[0])
        lo = int(np.floor(scaled))
        assert got in (lo, lo + 1)
        assert abs(got - scaled) <= 0.5 + 1e-9

    def test_quantize_array_overflow_rejected(self):
        with pytest.raises(QuantizationError):
            _quantize_array(np.array([100.0]), 12)

    def test_frac_bits_examples(self):
        # max_abs 1.0 -> 1 integer bit + sign -> 14 fractional bits
        assert _frac_bits(1.0) == 14
        assert _frac_bits(0.999) == 14
        assert _frac_bits(3.0) == 12
        assert _frac_bits(0.0) == 15

    def test_frac_bits_representable(self):
        for m in [0.01, 0.5, 1.0, 7.3, 300.0, 3.2e4]:
            f = _frac_bits(m)
            assert abs(np.rint(m * 2**f)) < 2**15


class TestQuantize:
    def test_rejects_non_tanh(self):
        from dataclasses import replace

        bad = replace(init_network(seed=0), activation="relu")
        with pytest.raises(ArgumentError):
            quantize(bad, np.zeros((1, 3)))

    def test_rejects_empty_calibration(self):
        net = init_network(seed=0)
        with pytest.raises(ArgumentError):
            quantize(net, np.zeros((0, 3)))

    def test_tanh_table_shape_and_endpoints(self):
        _, _, qnet = small_qnet()
        assert qnet.tanh_table.shape == (TANH_TABLE_SIZE,)
        assert qnet.tanh_table[0] == np.rint(np.tanh(-TANH_RANGE) * 2**TANH_FRAC)
        assert qnet.tanh_table[-1] == np.rint(np.tanh(TANH_RANGE) * 2**TANH_FRAC)
        # odd symmetry of tanh carries over to the table
        np.testing.assert_array_equal(qnet.tanh_table, -qnet.tanh_table[::-1])

    def test_words_fit_word_size(self):
        _, _, qnet = small_qnet()
        limit = 2**15
        for w in qnet.weight_words + qnet.bias_words:
            assert np.all(np.abs(w) < limit)

    @pytest.mark.parametrize("word_bits", [32, 40])
    def test_words_float64_cannot_hold_exactly_rejected(self, tmp_path, word_bits):
        # at these widths the input layer's worst-case accumulator, at least
        # 2**(2 * word_bits - 4), reaches 2**53; words are 16 bits, so such
        # a network can only come from a file, and the loader refuses it
        path = tmp_path / "q.json"
        save_quantized(small_qnet()[2], path)
        doc = json.loads(path.read_text())
        doc["word_bits"] = word_bits
        path.write_text(json.dumps(doc))
        with pytest.raises(ArgumentError, match="word_bits is not 16"):
            load_quantized(path)

    def test_weight_words_match_float_weights(self):
        net, _, qnet = small_qnet()
        for w, words, frac in zip(net.weights, qnet.weight_words, qnet.weight_fracs):
            np.testing.assert_allclose(
                words / 2.0**frac, w, atol=0.5 / 2.0**frac + 1e-12
            )


class TestForwardQ:
    def test_bit_exact_repeatability(self, trained_qnet, sampling_box_points):
        a = forward_q_batch(trained_qnet, sampling_box_points[:500])
        b = forward_q_batch(trained_qnet, sampling_box_points[:500])
        np.testing.assert_array_equal(a, b)

    def test_single_matches_batch(self, trained_qnet, sampling_box_points):
        for x in sampling_box_points[:20]:
            u = forward_q(trained_qnet, x)
            row = forward_q_batch(trained_qnet, x.reshape(1, 3))[0]
            assert (u.f_sw, u.duty) == (row[0], row[1])

    def test_nan_input_rejected_naming_the_row(self, trained_qnet, sampling_box_points):
        with pytest.raises(ArgumentError, match="row 0"):
            forward_q(trained_qnet, [np.nan, 0.0, 1000.0])
        x = sampling_box_points[:BLOCK_ROWS + 10].copy()
        x[BLOCK_ROWS + 3, 1] = np.nan
        x[BLOCK_ROWS + 7, 0] = np.nan
        with pytest.raises(ArgumentError, match=f"row {BLOCK_ROWS + 3}"):
            forward_q_batch(trained_qnet, x)

    def test_rows_of_three_required(self, trained_qnet):
        with pytest.raises(ArgumentError, match="rows of 3"):
            forward_q_batch(trained_qnet, np.zeros((3, 4)))

    def test_infinite_input_saturates_its_word(self, trained_qnet):
        # an infinite input clips to the input word's range, like a large finite one
        x = np.array([[np.inf, 0.0, 1000.0], [-np.inf, 0.0, 1000.0], [0.0, 50.0, np.inf]])
        big = np.where(np.isinf(x), np.sign(x) * 1e9, x)
        u, _ = ref_forward_q_core(trained_qnet, x)
        assert forward_q_batch(trained_qnet, x).tobytes() == u.tobytes()
        assert forward_q_batch(trained_qnet, big).tobytes() == u.tobytes()

    def test_outputs_inside_box(self, trained_qnet):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1e5, 1e5, size=(5000, 3))
        u = forward_q_batch(trained_qnet, x)
        assert np.all(u[:, 0] >= 30e3) and np.all(u[:, 0] <= 100e3)
        assert np.all(u[:, 1] >= 0.2) and np.all(u[:, 1] <= 0.8)

    def test_deviation_small_in_box(self, trained_net, trained_qnet, sampling_box_points):
        u_f = forward_batch(trained_net, sampling_box_points)
        u_q = forward_q_batch(trained_qnet, sampling_box_points)
        half = np.array([35e3, 0.3])
        rel = np.abs(u_q - u_f) / half
        assert rel.max() < 0.05


class TestMatchesReference:
    """The planned path gives the reference's bits, outputs and saturation count."""

    @staticmethod
    def assert_matches(net, qnet, x, n_single=200):
        u_ref, sat_ref = ref_forward_q_core(qnet, x)
        u = forward_q_batch(qnet, x)
        assert u.dtype == u_ref.dtype and u.tobytes() == u_ref.tobytes()
        assert quantization_report(net, qnet, x)["saturation_events"] == sat_ref
        for xk, row in zip(x[:n_single], u_ref):
            v = forward_q(qnet, xk)
            assert (v.f_sw, v.duty) == (row[0], row[1])
        return sat_ref

    def test_shipped_network(self, trained_net, trained_qnet, sampling_box_points):
        self.assert_matches(trained_net, trained_qnet, sampling_box_points)
        sat = self.assert_matches(trained_net, trained_qnet, wide_box_points(10_000, 11))
        assert sat > 0  # the wide box drives output words into saturation

    def test_small_network(self):
        net, _, qnet = small_qnet(seed=4)
        self.assert_matches(net, qnet, wide_box_points(10_000, 16, widen=40.0))

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 10_001])
    def test_row_blocks(self, trained_qnet, n):
        x = wide_box_points(n, n, widen=40.0)
        u_ref, sat_ref = ref_forward_q_core(trained_qnet, x)
        u, sat = _forward_q_core(trained_qnet, x)
        assert u.shape == u_ref.shape and u.tobytes() == u_ref.tobytes()
        assert sat == sat_ref

    def test_extreme_finite_inputs(self, trained_qnet):
        # the input word is (x - lo) / step - 2**frac; near overflow or
        # underflow it must still give the reference's saturated or zero words
        big = np.finfo(float).max
        tiny = np.finfo(float).smallest_subnormal
        x = np.array([[big, -big, tiny], [-big, big, -tiny], [1e300, -1e300, 4e3 + tiny],
                      [-150.0, 2000.0, 0.0], [150.0, -2000.0, 4000.0]])
        u_ref, sat_ref = ref_forward_q_core(trained_qnet, x)
        u, sat = _forward_q_core(trained_qnet, x)
        assert u.tobytes() == u_ref.tobytes() and sat == sat_ref

    def test_activation_on_every_16_bit_word(self, trained_qnet):
        frac = trained_qnet.preact_fracs[0]
        z = np.arange(-(2**15), 2**15, dtype=np.int64)
        want = ref_tanh_lookup(z, frac, trained_qnet.tanh_table)
        assert trained_qnet.plan.activation.dtype == float
        np.testing.assert_array_equal(trained_qnet.plan.activation, want)
        np.testing.assert_array_equal(_tanh_words(trained_qnet.tanh_table), want)

    @pytest.mark.parametrize("bias_word", [2**14 - 1, 2**15 - 1])
    def test_table_only_where_its_index_is_exact(self, bias_word):
        # Hidden layer 1 takes 256 activations with words of 2**15 - 1 and a
        # bias aligned 38 bits to the left, and requantizes by 17 bits.  At
        # the larger bias its worst-case accumulator is 2**53 - 2**27.5,
        # which float64 holds, but adding the table offset 2**15 * 2**17
        # would pass 2**53, so the plan refuses that network.
        net = init_network(seed=0)
        rng = np.random.default_rng(bias_word)
        qnet = QuantizedNetwork(
            weight_words=(rng.integers(-300, 300, (256, 3)), np.full((10, 256), 2**15 - 1),
                          rng.integers(-(2**15), 2**15, (2, 10))),
            bias_words=(rng.integers(-300, 300, 256), np.full(10, bias_word),
                        rng.integers(-(2**15), 2**15, 2)),
            weight_fracs=(15, 15, 15),
            bias_fracs=(15, -8, 15),
            input_frac=14,
            preact_fracs=_preact_fracs(3),
            tanh_table=_build_tanh_table(),
            input_lo=net.input_lo, input_hi=net.input_hi,
            output_lo=net.output_lo, output_hi=net.output_hi,
        )
        if bias_word == 2**15 - 1:
            with pytest.raises(QuantizationError, match="layer 1"):
                qnet.plan  # noqa: B018
            return
        x = wide_box_points(3000, 5, widen=3.0)
        u_ref, sat_ref = ref_forward_q_core(qnet, x)
        u, sat = _forward_q_core(qnet, x)
        assert u.tobytes() == u_ref.tobytes() and sat == sat_ref


class TestReport:
    def test_report_fields_and_bounds(self, trained_net, trained_qnet, sampling_box_points):
        rep = quantization_report(trained_net, trained_qnet, sampling_box_points)
        assert rep["n_samples"] == 10000
        assert set(rep) == {"n_samples", "max_rel_deviation", "mean_rel_deviation",
                            "saturation_events", "weight_range_utilization"}
        assert len(rep["max_rel_deviation"]) == 2
        assert all(m >= 0 for m in rep["max_rel_deviation"])
        assert all(
            mean <= mx
            for mean, mx in zip(rep["mean_rel_deviation"], rep["max_rel_deviation"])
        )
        assert all(0 < u <= 1 for u in rep["weight_range_utilization"])
        json.dumps(rep)  # must be serializable as-is

    def test_report_rejects_empty(self, trained_net, trained_qnet):
        with pytest.raises(ArgumentError):
            quantization_report(trained_net, trained_qnet, np.zeros((0, 3)))


class TestFiles:
    def test_roundtrip_bit_exact(self, tmp_path, trained_qnet, sampling_box_points):
        path = tmp_path / "q.json"
        save_quantized(trained_qnet, path)
        back = load_quantized(path)
        np.testing.assert_array_equal(
            forward_q_batch(back, sampling_box_points[:300]),
            forward_q_batch(trained_qnet, sampling_box_points[:300]),
        )

    def test_format_version_checked(self, tmp_path, trained_qnet):
        path = tmp_path / "q.json"
        save_quantized(trained_qnet, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ArgumentError):
            load_quantized(path)


SHIPPED_QNET = Path(__file__).resolve().parent.parent / "artifacts" / "policy_q16.json"


def _shipped_doc():
    return json.loads(SHIPPED_QNET.read_text())


def _drop_word(doc):
    doc["weight_words"][1].pop()


def _unchained_shapes(doc):
    # layer 2 becomes 9 x 10 with a consistent word count; layer 3 still takes 10
    doc["weight_shapes"][2] = [9, 10]
    doc["weight_words"][2] = doc["weight_words"][2][:90]
    doc["bias_words"][2] = doc["bias_words"][2][:9]


# each entry breaks exactly one rule of the file format
MALFORMED = {
    "tanh_range": lambda d: d.update(tanh_range=2.0),
    "tanh_frac": lambda d: d.update(tanh_frac=14),
    "table_length": lambda d: d["tanh_table"].pop(),
    "word_count": _drop_word,
    "shape_count": lambda d: d["weight_shapes"][0].__setitem__(0, 11),
    "shapes_do_not_chain": _unchained_shapes,
    "first_layer_inputs": lambda d: d["weight_shapes"][0].reverse(),
    "bias_length": lambda d: d["bias_words"][3].pop(),
    "weight_fracs_length": lambda d: d["weight_fracs"].pop(),
    "bias_fracs_length": lambda d: d["bias_fracs"].append(12),
    "preact_fracs_length": lambda d: d["preact_fracs"].pop(),
    "input_box_length": lambda d: d["input_box"]["lo"].pop(),
    "output_box_length": lambda d: d["output_box"]["hi"].append(1.0),
    "word_outside_width": lambda d: d["weight_words"][0].__setitem__(0, 2**15),
    "float_word": lambda d: d["bias_words"][0].__setitem__(0, 0.5),
    "frac_outside_word": lambda d: d["preact_fracs"].__setitem__(0, 16),
    "hidden_preact_frac": lambda d: d["preact_fracs"].__setitem__(1, -2),
    "output_preact_frac": lambda d: d["preact_fracs"].__setitem__(-1, 14),
    "missing_key": lambda d: d.pop("input_frac"),
    "bool_version": lambda d: d.update(format_version=True),
}


class TestLoaderRejectsMalformedFiles:
    def test_shipped_file_loads(self):
        qnet = load_quantized(SHIPPED_QNET)
        assert [w.shape for w in qnet.weight_words] == [
            tuple(s) for s in _shipped_doc()["weight_shapes"]]

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_rejected(self, tmp_path, name):
        doc = _shipped_doc()
        MALFORMED[name](doc)
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ArgumentError):
            load_quantized(path)

    def test_load_rejects_inexact_network(self, tmp_path):
        # a well-formed file whose first bias, aligned 40 bits to the left,
        # passes 2**53
        doc = _shipped_doc()
        doc["bias_fracs"][0] = -15
        path = tmp_path / "q.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(QuantizationError, match="layer 0"):
            load_quantized(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_or_truncated_shipped_file_rejected(self, tmp_path_factory, data):
        # truncated text, a deleted key, a list entry of the wrong kind or
        # out of its word width, one entry too few or too many, another
        # tanh format, or a pre-activation binary point inside the word
        # other than the fixed one: every one must raise ArgumentError
        text = SHIPPED_QNET.read_text()
        doc = json.loads(text)
        lists = [(doc, k) for k, v in doc.items() if isinstance(v, list)]
        lists += [(doc[k], i) for k in ("weight_words", "weight_shapes", "bias_words")
                  for i in range(len(doc[k]))]
        lists += [(doc[b], k) for b in ("input_box", "output_box") for k in ("lo", "hi")]
        kind = data.draw(st.sampled_from(
            ["truncate", "delete", "wrong_type", "out_of_width", "shorter", "longer", "tanh",
             "preact"]))
        if kind == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        else:
            if kind == "delete":
                del doc[data.draw(st.sampled_from(sorted(doc)))]
            elif kind == "tanh":
                key = data.draw(st.sampled_from(["tanh_range", "tanh_frac"]))
                doc[key] = data.draw(st.sampled_from([0, 1, 2.0, 8.0, 14, 16, -4.0, "4.0"]))
            elif kind == "preact":
                fracs = doc["preact_fracs"]
                i = data.draw(st.integers(0, len(fracs) - 1))
                fracs[i] = data.draw(st.integers(-15, 15).filter(lambda f: f != fracs[i]))
            else:
                owner, key = data.draw(st.sampled_from(lists))
                seq = owner[key]
                i = data.draw(st.integers(0, len(seq) - 1))
                if kind == "shorter":
                    seq.pop(i)
                elif kind == "longer":
                    seq.insert(i, seq[i])
                elif kind == "out_of_width":
                    if owner is doc["weight_shapes"] or not all(isinstance(x, int) for x in seq):
                        seq[i] = "x"  # no word width here: fall back to a wrong type
                    else:
                        seq[i] = data.draw(st.sampled_from([2**31, -(2**31) - 1, 2**70]))
                else:
                    seq[i] = data.draw(st.sampled_from(["7", None, True, [], {"a": 1}]))
            text = json.dumps(doc)
        path = tmp_path_factory.mktemp("q") / "q.json"
        path.write_text(text)
        with pytest.raises(ArgumentError):
            load_quantized(path)
