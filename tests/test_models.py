import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argseg.errors import (
    ArgsegError,
    ConfigurationError,
    ContractViolation,
    DimensionError,
    FormatError,
)
from argseg.layers import (
    AdditiveSelfAttention,
    BiLstm,
    MultiHeadSelfAttention,
    TimeDistributedLinear,
)
from argseg.models import (
    ArchitectureId,
    ModelSpec,
    build_model,
    load_checkpoint,
    parameter_count,
    predict_labels,
    save_checkpoint,
)
from argseg.numeric import BatchTensor, grad_check, softmax_rows
from argseg.selftest import GRAD_TOLERANCE

# 2 directions x 4 gates x (W + U + b) for the BiLSTM, then the 3-way head
SB_PARAM_COUNT = 2 * 4 * (300 * 64 + 64 * 64 + 64) + (128 * 3 + 3)


def toy_batch(rng, features, batch=2, time=3, scale=0.5):
    """``batch`` sequences of ``time`` tokens, except the last, which is one shorter."""
    values = rng.standard_normal((batch, time, features)) * scale
    return BatchTensor.from_rows([*values[:-1], values[-1, :-1]])


class TestBuildModel:
    def test_sb_parameter_count_closed_form(self):
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=300, hidden=64))
        total = sum(p.value.size for p in model.params())
        assert total == SB_PARAM_COUNT == 187267

    def test_bl_i_first_layer_is_six_head_attention(self):
        model = build_model(ModelSpec(ArchitectureId.BL_I, input_dim=300, hidden=8))
        first = model.layers[0]
        assert isinstance(first, MultiHeadSelfAttention)
        assert first.heads == 6

    def test_bl_e_attention_heads_follow_divisor_rule(self):
        model = build_model(ModelSpec(ArchitectureId.BL_E, input_dim=300, hidden=8))
        attn = [l for l in model.layers if isinstance(l, MultiHeadSelfAttention)]
        assert len(attn) == 1
        assert attn[0].dim == 4 and attn[0].heads == 4

    def test_same_seed_bit_identical(self):
        spec = ModelSpec(ArchitectureId.BL_I, input_dim=12, hidden=5, seed=99)
        a = build_model(spec)
        b = build_model(spec)
        for pa, pb in zip(a.params(), b.params()):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)

    @pytest.mark.parametrize("arch,expected", [
        (ArchitectureId.BL, [BiLstm, TimeDistributedLinear, BiLstm, TimeDistributedLinear]),
        (ArchitectureId.BL_I, [MultiHeadSelfAttention, BiLstm, TimeDistributedLinear,
                               BiLstm, TimeDistributedLinear]),
        (ArchitectureId.BL_E, [BiLstm, TimeDistributedLinear, MultiHeadSelfAttention,
                               BiLstm, TimeDistributedLinear]),
        (ArchitectureId.SB, [BiLstm, TimeDistributedLinear]),
        (ArchitectureId.SB_I, [AdditiveSelfAttention, BiLstm, TimeDistributedLinear]),
    ])
    def test_layer_stacks(self, arch, expected):
        model = build_model(ModelSpec(arch, input_dim=12, hidden=4))
        assert [type(l) for l in model.layers] == expected
        head = model.layers[-1]
        assert (head.name, head.w.value.shape[1]) == ("head", 3)
        assert [p.name for p in head.params()] == ["head.W", "head.b"]

    @pytest.mark.parametrize("arch", list(ArchitectureId))
    @pytest.mark.parametrize("features", [11, 13])
    def test_batch_of_the_wrong_width_is_rejected_by_the_first_layer(self, arch, features):
        model = build_model(ModelSpec(arch, input_dim=12, hidden=4))
        batch = toy_batch(np.random.default_rng(3), features)
        first = f"{model.layers[0].name}: input has {features} features, expected 12"
        with pytest.raises(DimensionError, match=f"^{first}$"):
            model.forward(batch)
        with pytest.raises(DimensionError, match=f"^{first}$"):
            model.logits(batch)

    def test_sb_is_prefix_of_bl(self):
        sb = build_model(ModelSpec(ArchitectureId.SB, input_dim=12, hidden=4, seed=5))
        bl = build_model(ModelSpec(ArchitectureId.BL, input_dim=12, hidden=4, seed=5))
        for p_sb, p_bl in zip(sb.layers[0].params(), bl.layers[0].params()):
            assert np.array_equal(p_sb.value, p_bl.value)

    @pytest.mark.parametrize("field,value,problem", [
        ("seed", -1, "seed must be >= 0"),
        ("attn_dim", 0, "attn_dim must be >= 1"),
        ("input_dim", True, "input_dim must be an int, got True"),
        ("input_dim", 16.0, "input_dim must be an int, got 16.0"),
        ("hidden", 2.5, "hidden must be an int, got 2.5"),
        ("seed", False, "seed must be an int, got False"),
        ("attn_dim", "4", "attn_dim must be an int, got '4'"),
        ("arch", "sb", "arch must be an ArchitectureId, got 'sb'"),
        ("arch", None, "arch must be an ArchitectureId, got None"),
    ])
    def test_spec_out_of_range_rejected_by_name(self, field, value, problem):
        # every architecture, though only sb-i uses attn_dim
        for arch in ArchitectureId:
            with pytest.raises(ConfigurationError, match=problem):
                ModelSpec(**{"arch": arch, "input_dim": 4, field: value})

    def test_incompatible_attention_dim_reported(self):
        with pytest.raises(ConfigurationError, match="heads"):
            # 7-dim inter-stage space with a forced 4-head requirement
            MultiHeadSelfAttention(7, 4, np.random.default_rng(0))


class TestForward:
    def test_distribution_contract(self):
        # three finite logits per token, in the batch's packed order
        rng = np.random.default_rng(0)
        for arch in ArchitectureId:
            model = build_model(ModelSpec(arch, input_dim=6, hidden=4, seed=3))
            batch = toy_batch(rng, 6)
            out, _ = model.forward(batch)
            assert out.rows.shape == (5, 3)
            assert out.spans == batch.spans
            assert np.isfinite(out.rows).all()
            probs = softmax_rows(out.rows)
            assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9

    def test_sb_equals_manual_composition(self):
        rng = np.random.default_rng(1)
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=6, hidden=4, seed=7))
        batch = toy_batch(rng, 6)
        out, _ = model.forward(batch)
        bilstm, head = model.layers
        mid, _ = bilstm.forward(batch)
        expected, _ = head.forward(mid)
        assert np.array_equal(out.rows, expected.rows)

    def test_all_padding_entry_contributes_nothing(self):
        from argseg.training import masked_cross_entropy

        rng = np.random.default_rng(3)
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=5, hidden=3, seed=1))
        rows = [rng.standard_normal((4, 5)), rng.standard_normal((2, 5))]
        gold = np.zeros(6, dtype=np.int64)

        out1, _ = model.forward(BatchTensor.from_rows(rows))
        loss1, _ = masked_cross_entropy(out1, gold)
        out2, _ = model.forward(BatchTensor.from_rows([*rows, np.zeros((0, 5))]))
        loss2, _ = masked_cross_entropy(out2, gold)
        assert loss1 == pytest.approx(loss2, abs=1e-15)


class TestPredictLabels:
    def test_argmax_and_tie_break(self):
        probs = np.array([[[0.1, 0.7, 0.2], [1 / 3, 1 / 3, 1 / 3]]])
        assert np.argmax(probs[0, 0]) == 1  # I
        assert np.argmax(probs[0, 1]) == 0  # exact tie -> B

        rng = np.random.default_rng(4)
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=4, hidden=3, seed=0))
        head = model.layers[-1]
        head.w.value[...] = 0.0
        head.b.value[...] = 0.0  # uniform output everywhere
        batch = toy_batch(rng, 4)
        labels = predict_labels(model, batch)
        assert labels.shape == (5,) and (labels == 0).all()  # ties resolve to B

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 3)) * 3
        base = np.argmax(softmax_rows(logits), axis=1)
        for transform in (lambda z: 2 * z + 1, lambda z: z**3, np.tanh):
            assert np.array_equal(np.argmax(softmax_rows(transform(logits)), axis=1), base)


# the BiLSTM-only models run an empty sequence; attention needs a token per sequence
EMPTY_ALLOWED = {ArchitectureId.SB, ArchitectureId.BL}


@pytest.mark.parametrize("arch", list(ArchitectureId))
@settings(max_examples=10, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=5),
       empty_at=st.integers(0, 5), seed=st.integers(0, 2**16))
def test_each_sequence_matches_its_run_alone(arch, lengths, empty_at, seed):
    rng = np.random.default_rng(seed)
    model = build_model(ModelSpec(arch, input_dim=6, hidden=4, attn_dim=4, seed=seed))
    if arch in EMPTY_ALLOWED:
        lengths = lengths[:empty_at] + [0] + lengths[empty_at:]
    seqs = [rng.standard_normal((n, 6)) for n in lengths]
    batch = BatchTensor.from_rows(seqs)
    out, _ = model.forward(batch)
    assert out.rows.shape == (sum(lengths), 3)
    for (lo, hi), seq in zip(batch.spans, seqs, strict=True):
        if hi > lo:
            alone, _ = model.forward(BatchTensor.from_rows([seq]))
            assert np.abs(out.rows[lo:hi] - alone.rows).max() <= 1e-12


@pytest.mark.parametrize("arch", list(ArchitectureId))
def test_full_model_gradients(arch):
    for seed in (0, 1):
        rng = np.random.default_rng(10 + seed)
        model = build_model(
            ModelSpec(arch, input_dim=4, hidden=3, attn_dim=4, seed=seed)
        )
        err = grad_check(model, toy_batch(rng, 4), rng)
        assert err < GRAD_TOLERANCE, f"{arch.value} seed {seed}: {err:.3e}"


class TestCheckpoint:
    def test_byte_exact_roundtrip(self, tmp_path):
        model = build_model(ModelSpec(ArchitectureId.BL_E, input_dim=8, hidden=3, seed=21))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        restored = load_checkpoint(p1)
        save_checkpoint(restored, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_restored_model_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(6)
        model = build_model(ModelSpec(ArchitectureId.SB_I, input_dim=5, hidden=4, seed=2))
        for p in model.params():  # move away from the seeded init
            p.value += rng.standard_normal(p.value.shape) * 0.1
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        batch = toy_batch(rng, 5)
        out_a, _ = model.forward(batch)
        out_b, _ = restored.forward(batch)
        assert np.array_equal(out_a.rows, out_b.rows)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(ModelSpec(ArchitectureId.SB, input_dim=4, hidden=2, seed=0))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        (tmp_path / "bad.ckpt").write_bytes(data[:-17])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT 1\nend-header\n")
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)


def perturbed_model(rng, arch=ArchitectureId.BL_E):
    model = build_model(ModelSpec(arch, input_dim=8, hidden=3, seed=4))
    for p in model.params():  # move away from the seeded init
        p.value += rng.standard_normal(p.value.shape) * 0.1
    return model


def saved_bytes(model, tmp_path) -> bytes:
    save_checkpoint(model, tmp_path / "saved.ckpt")
    return (tmp_path / "saved.ckpt").read_bytes()


def load_bytes(data: bytes, tmp_path):
    path = tmp_path / "edited.ckpt"
    path.write_bytes(data)
    return load_checkpoint(path)


def replace_line(data: bytes, key: bytes, line: bytes) -> bytes:
    """``data`` with its header line that starts with ``key`` replaced by ``line``."""
    start = data.index(b"\n" + key + b" ") + 1
    return data[:start] + line + data[data.index(b"\n", start):]


# SHA-256 of save_checkpoint for ModelSpec(arch, input_dim=6, hidden=3,
# attn_dim=4, seed=2): any change to the bytes of format 3 shows here
FORMAT_3_DIGESTS = {
    ArchitectureId.BL: "185ad6c4455750162de11013beffdb578a1b309e9cbabdc9fffbdb9848ae2d94",
    ArchitectureId.BL_I: "be726e7a59e3ebdc7fb77d00627cbddcc4a2ac930978f53c9dbf88b17717ed46",
    ArchitectureId.BL_E: "6aeb268ae5370ee477e7e5acbfdffaad2accfaa45819aa25dd4543a873cd9802",
    ArchitectureId.SB: "a4b2f1fd3515d9934e5963aac6978f6591d47cedb8a4124081313ff63ec95e25",
    ArchitectureId.SB_I: "d412f809273ccda0d63dc793f688d88456319c3b0854507c7b9fe8a477db1bae",
}


class TestCheckpointFormats:
    @pytest.mark.parametrize("arch", list(ArchitectureId))
    def test_format_three_bytes_are_pinned(self, tmp_path, arch):
        model = build_model(ModelSpec(arch, input_dim=6, hidden=3, attn_dim=4, seed=2))
        data = saved_bytes(model, tmp_path)
        assert hashlib.sha256(data).hexdigest() == FORMAT_3_DIGESTS[arch]
        save_checkpoint(load_bytes(data, tmp_path), tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == data

    @pytest.mark.parametrize("version", [b"0", b"1", b"2", b"4", b"03"])
    def test_other_versions_rejected(self, tmp_path, version):
        data = saved_bytes(perturbed_model(np.random.default_rng(14), ArchitectureId.SB), tmp_path)
        edited = data.replace(b"ARGSEG-CKPT 3\n", b"ARGSEG-CKPT " + version + b"\n", 1)
        with pytest.raises(FormatError, match=f"unsupported checkpoint version {version.decode()}$"):
            load_bytes(edited, tmp_path)

    def test_score_bias_not_accepted_in_current_format(self, tmp_path):
        # the additive attention's old constant score bias follows its v_a
        data = saved_bytes(perturbed_model(np.random.default_rng(11), ArchitectureId.SB_I),
                           tmp_path)
        cut = data.index(b"tensor bilstm_1.")
        edited = data[:cut] + b"tensor attn_in.b_v 1 1\n" + np.zeros(1).tobytes() + data[cut:]
        with pytest.raises(FormatError, match="b_v"):
            load_bytes(edited, tmp_path)

    @staticmethod
    def corrupt(data: bytes, how: str) -> bytes:
        header, sep, body = data.partition(b"end-header\n")
        if how == "version":
            return b"ARGSEG-CKPT one\n" + data.partition(b"\n")[2]
        if how == "tensor_count":
            head, _, rest = header.partition(b"tensors ")
            return head + b"tensors many" + rest[rest.index(b"\n"):] + sep + body
        if how == "short_tensor_line":
            line_end = body.index(b"\n")
            name = body[:line_end].split()[1]
            return header + sep + b"tensor " + name + body[line_end:]
        if how in ("dims_2_64", "dims_2_80"):  # products that wrap to 0 in int64
            line_end = body.index(b"\n")
            name = body[:line_end].split()[1]
            dim = b"4294967296" if how == "dims_2_64" else b"1099511627776"
            return header + sep + b"tensor " + name + b" 2 " + dim + b" " + dim + body[line_end:]
        assert how == "non_utf8_header"
        return data.replace(b"arch ", b"arch \xff\xfe", 1)

    @pytest.mark.parametrize("version", [3])  # the only format there is
    @pytest.mark.parametrize("how", ["version", "tensor_count", "short_tensor_line",
                                     "non_utf8_header", "dims_2_64", "dims_2_80"])
    def test_malformed_file_is_format_error(self, tmp_path, version, how):
        data = saved_bytes(perturbed_model(np.random.default_rng(9), ArchitectureId.SB), tmp_path)
        assert data.startswith(b"ARGSEG-CKPT %d\n" % version)
        bad = self.corrupt(data, how)
        assert bad != data
        with pytest.raises(FormatError):
            load_bytes(bad, tmp_path)

    @pytest.mark.parametrize("arch,attention", [(ArchitectureId.BL, b"multi_head"),
                                                (ArchitectureId.SB_I, b"additive")])
    def test_header_names_the_fixed_design(self, tmp_path, arch, attention):
        data = saved_bytes(perturbed_model(np.random.default_rng(12), arch), tmp_path)
        fixed = b"inter_stage_dim 4\nattention " + attention + b"\nheads_cap 6\n"
        assert fixed in data.partition(b"end-header\n")[0]
        # every line is required, the attention line too
        with pytest.raises(FormatError, match="attention"):
            load_bytes(data.replace(b"attention " + attention + b"\n", b"", 1), tmp_path)

    @pytest.mark.parametrize("line", [b"inter_stage_dim none", b"heads_cap 5",
                                      b"attention additive"])
    def test_other_design_rejected_naming_the_field(self, tmp_path, line):
        data = saved_bytes(perturbed_model(np.random.default_rng(13), ArchitectureId.BL),
                           tmp_path)
        field = line.split()[0]
        with pytest.raises(FormatError, match=field.decode()):
            load_bytes(replace_line(data, field, line), tmp_path)

    @pytest.mark.parametrize("key", [b"arch", b"input_dim", b"hidden", b"inter_stage_dim",
                                     b"attention", b"heads_cap", b"seed", b"attn_dim",
                                     b"tensors"])
    def test_every_header_line_required_once(self, tmp_path, key):
        data = saved_bytes(perturbed_model(np.random.default_rng(15), ArchitectureId.SB_I),
                           tmp_path)
        start = data.index(b"\n" + key + b" ") + 1
        line = data[start:data.index(b"\n", start) + 1]
        with pytest.raises(FormatError, match=key.decode()):
            load_bytes(data.replace(line, b"", 1), tmp_path)
        with pytest.raises(FormatError, match=f"header line '{key.decode()} "):
            load_bytes(data.replace(line, line + line, 1), tmp_path)

    @pytest.mark.parametrize("first", [b"arch", b"input_dim", b"hidden", b"inter_stage_dim",
                                       b"attention", b"heads_cap", b"seed", b"attn_dim"])
    def test_header_lines_swapped_rejected_naming_both(self, tmp_path, first):
        data = saved_bytes(perturbed_model(np.random.default_rng(22), ArchitectureId.BL),
                           tmp_path)
        start = data.index(b"\n" + first + b" ") + 1
        middle = data.index(b"\n", start) + 1
        end = data.index(b"\n", middle) + 1
        one, two = data[start:middle - 1].decode(), data[middle:end - 1].decode()
        swapped = data[:start] + data[middle:end] + data[start:middle] + data[end:]
        with pytest.raises(FormatError, match=f"line '{two}' where a bl model writes '{one}'"):
            load_bytes(swapped, tmp_path)

    @pytest.mark.parametrize("line", [b"b_v 1", b"comment trained on toydata"])
    def test_unknown_header_line_rejected(self, tmp_path, line):
        data = saved_bytes(perturbed_model(np.random.default_rng(16), ArchitectureId.SB_I),
                           tmp_path)
        edited = data.replace(b"end-header\n", line + b"\nend-header\n", 1)
        with pytest.raises(FormatError):
            load_bytes(edited, tmp_path)

    @pytest.mark.parametrize("line", [b"hidden 03", b"input_dim +8", b"seed 4_0", b"arch SB",
                                      b"tensors 012", b"tensors 99"])
    def test_header_value_must_read_as_written(self, tmp_path, line):
        data = saved_bytes(perturbed_model(np.random.default_rng(17), ArchitectureId.SB),
                           tmp_path)
        with pytest.raises(FormatError, match=line.split()[0].decode()):
            load_bytes(replace_line(data, line.split()[0], line), tmp_path)

    @pytest.mark.parametrize("arch", list(ArchitectureId))
    def test_tensors_out_of_order_rejected(self, tmp_path, arch):
        model = perturbed_model(np.random.default_rng(18), arch)
        header, sep, body = saved_bytes(model, tmp_path).partition(b"end-header\n")
        blocks, at = {}, 0
        for p in model.params():  # each block is its tensor line and its values
            end = body.index(b"\n", at) + 1 + p.value.nbytes
            blocks[p.name], at = body[at:end], end
        # swap the two directions' W, which have the same shape
        names = list(blocks)
        i, j = names.index("bilstm_1.fwd.W"), names.index("bilstm_1.bwd.W")
        names[i], names[j] = names[j], names[i]
        with pytest.raises(FormatError, match="bilstm_1.bwd.W"):
            load_bytes(header + sep + b"".join(blocks[n] for n in names), tmp_path)

    @pytest.mark.parametrize("line", [b"input_dim 4000000000", b"hidden 66663"])
    @pytest.mark.parametrize("arch", [ArchitectureId.BL_I, ArchitectureId.SB])
    def test_inflated_header_is_format_error_before_allocating(self, tmp_path, arch, line):
        data = saved_bytes(perturbed_model(np.random.default_rng(19), arch), tmp_path)
        with pytest.raises(FormatError, match="bytes follow it"):
            load_bytes(replace_line(data, line.split()[0], line), tmp_path)

    @pytest.mark.parametrize("line,problem", [(b"seed -1", "seed must be >= 0"),
                                              (b"attn_dim 0", "attn_dim must be >= 1")])
    def test_spec_out_of_range_is_format_error(self, tmp_path, line, problem):
        data = saved_bytes(perturbed_model(np.random.default_rng(20), ArchitectureId.SB),
                           tmp_path)
        with pytest.raises(FormatError, match=problem):
            load_bytes(replace_line(data, line.split()[0], line), tmp_path)


@pytest.mark.parametrize("arch", list(ArchitectureId))
def test_parameter_count_matches_build_model(arch):
    for input_dim, hidden, attn_dim in [(1, 1, 1), (4, 3, 2), (7, 5, 9), (12, 1, 3), (300, 8, 32)]:
        spec = ModelSpec(arch, input_dim, hidden, attn_dim=attn_dim)
        assert parameter_count(spec) == sum(p.value.size for p in build_model(spec).params())


@pytest.fixture(scope="module")
def format3_files(tmp_path_factory):
    """A perturbed model's checkpoint bytes for every architecture, and a scratch path."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {arch: saved_bytes(perturbed_model(np.random.default_rng(21), arch), root)
             for arch in ArchitectureId}
    return files, root / "mutated.ckpt"


@pytest.mark.parametrize("arch", list(ArchitectureId))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_exactly_or_is_argseg_error(format3_files, arch, data):
    files, path = format3_files
    original = files[arch]
    header_end = original.index(b"end-header\n")
    how = data.draw(st.sampled_from(["truncate", "flip", "splice", "digits"]))
    if how == "truncate":
        mutated = original[: data.draw(st.integers(0, len(original) - 1))]
    elif how == "flip":  # half of the time within the header
        last = data.draw(st.sampled_from([header_end, len(original) - 1]))
        mutated = bytearray(original)
        for i, bit in data.draw(st.lists(st.tuples(st.integers(0, last), st.integers(0, 7)),
                                         min_size=1, max_size=4)):
            mutated[i] ^= 1 << bit
    elif how == "splice":
        donor = files[data.draw(st.sampled_from(list(ArchitectureId)))]
        a, b = sorted(data.draw(st.integers(0, len(original))) for _ in range(2))
        c, d = sorted(data.draw(st.integers(0, len(donor))) for _ in range(2))
        mutated = original[:a] + donor[c:d] + original[b:]
    else:  # a run of digits and minus signs inside the header
        at = data.draw(st.integers(0, header_end))
        run = data.draw(st.text("0123456789-", min_size=1, max_size=12)).encode()
        mutated = original[:at] + run + original[at:]
    path.write_bytes(bytes(mutated))
    try:
        model = load_checkpoint(path)
    except ArgsegError:
        return
    # the reader accepts only what the writer writes
    save_checkpoint(model, path.with_suffix(".again"))
    assert path.with_suffix(".again").read_bytes() == bytes(mutated)


@pytest.mark.parametrize("arch", list(ArchitectureId))
def test_input_grad_off_keeps_parameter_gradients(arch):
    rng = np.random.default_rng(41)
    model = build_model(ModelSpec(arch, input_dim=12, hidden=5, seed=3))
    x = BatchTensor.from_rows([rng.standard_normal((n, 12)) for n in (4, 1, 6)])
    logits, caches = model.forward(x)
    upstream = rng.standard_normal(logits.rows.shape)
    assert model.backward(caches, upstream).shape == x.rows.shape
    assert caches == []  # consumed: a second backward needs a second forward
    full = [p.grad.copy() for p in model.params()]
    assert model.backward(model.forward(x)[1], upstream, input_grad=False) is None
    for p, expected in zip(model.params(), full, strict=True):
        assert p.grad.tobytes() == expected.tobytes(), p.name


@pytest.mark.parametrize("arch", list(ArchitectureId))
def test_second_backward_writes_the_same_gradients(arch):
    rng = np.random.default_rng(42)
    model = build_model(ModelSpec(arch, input_dim=12, hidden=5, seed=3))
    logits, caches = model.forward(
        BatchTensor.from_rows([rng.standard_normal((n, 12)) for n in (4, 1, 6)]))
    upstream = rng.standard_normal(logits.rows.shape)
    model.backward(list(caches), upstream, input_grad=False)  # a copy: backward pops
    once = [p.grad.copy() for p in model.params()]
    model.backward(caches, upstream, input_grad=False)
    for p, expected in zip(model.params(), once, strict=True):
        assert p.grad.any(), p.name
        assert p.grad.tobytes() == expected.tobytes(), p.name


# ---------------------------------------------------------------------------
# Cache lifetimes
# ---------------------------------------------------------------------------


def cache_arrays(cache):
    """Every array a layer cache holds, through its tuples and lists."""
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, (tuple, list)):
        for item in cache:
            yield from cache_arrays(item)


def weak_cache(cache, batch: BatchTensor) -> list:
    """Weak references to a cache's arrays, less the batch's own rows, which
    the caller holds."""
    return [weakref.ref(a) for a in cache_arrays(cache) if a is not batch.rows]


def lifetime_batch(arch):
    rng = np.random.default_rng(43)
    model = build_model(ModelSpec(arch, input_dim=12, hidden=5, seed=3))
    return model, BatchTensor.from_rows([rng.standard_normal((n, 12)) for n in (4, 1, 6)])


@pytest.mark.parametrize("arch", list(ArchitectureId))
def test_backward_releases_each_cache_when_its_layer_is_done(arch):
    model, x = lifetime_batch(arch)
    logits, caches = model.forward(x)
    refs = [weak_cache(cache, x) for cache in caches]
    assert all(refs[1:])  # every layer after the first caches arrays of its own
    later_alive = []
    for i, layer in enumerate(model.layers):
        def spy(cache, grad_out, i=i, inner=layer.backward, **kwargs):
            later_alive.append(sum(ref() is not None for later in refs[i + 1 :]
                                   for ref in later))
            return inner(cache, grad_out, **kwargs)

        layer.backward = spy
    model.backward(caches, np.ones_like(logits.rows), input_grad=False)
    assert later_alive == [0] * len(model.layers)
    assert caches == [] and all(ref() is None for layer in refs for ref in layer)


@pytest.mark.parametrize("arch", list(ArchitectureId))
def test_inference_drops_each_cache_once_the_next_layer_has_its_input(arch):
    # each layer's inference entry is spied on; a layer whose infer runs its
    # forward also reports that forward's cache.  When a layer starts, every
    # array an earlier layer made, bar this layer's input rows, is freed.
    model, x = lifetime_batch(arch)
    expected = model.forward(x)[0].rows
    refs, earlier_alive = [], []
    for i, layer in enumerate(model.layers):
        made = []

        def forward_spy(batch, inner=layer.forward, made=made):
            out, cache = inner(batch)
            made.extend(weak_cache(cache, batch))
            return out, cache

        def infer_spy(batch, i=i, inner=layer.infer, made=made):
            earlier_alive.append(sum(ref() is not None and ref() is not batch.rows
                                     for earlier in refs[:i] for ref in earlier))
            out = inner(batch)
            made.append(weakref.ref(out.rows))
            refs.append(made)
            return out

        layer.forward, layer.infer = forward_spy, infer_spy
    labels = predict_labels(model, x)
    assert earlier_alive == [0] * len(model.layers) and all(refs[1:])
    assert np.array_equal(labels, np.argmax(expected, axis=1))
    assert model.logits(x).rows.tobytes() == expected.tobytes()


def test_consumed_caches_cannot_serve_a_second_backward():
    model, x = lifetime_batch(ArchitectureId.SB)
    logits, caches = model.forward(x)
    model.backward(caches, np.ones_like(logits.rows))
    with pytest.raises(ContractViolation, match="caches serve one backward"):
        model.backward(caches, np.ones_like(logits.rows))
