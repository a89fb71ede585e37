import dataclasses
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hebdot.cli import _merge_settings, build_parser, main
from hebdot.corpus import Vocabulary
from hebdot.dotter import Dotter
from hebdot.network import (
    ModelConfig,
    field_types,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from hebdot.trainer import TrainPlan

from conftest import checkpoint_fields

FIELD_TYPES = {**field_types(TrainPlan), **field_types(ModelConfig)}


BUNDLED_STATS = [
    "premodern\t3\t96\t451",
    "modern\t12\t608\t2920",
    "validation\t2\t71\t338",
    "test\t2\t70\t333",
]


def rewrite_header(src, dst, edit):
    """Copy a checkpoint, passing its JSON header through ``edit``."""
    blob = src.read_bytes()
    (n,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + n])
    edit(header)
    new = json.dumps(header, ensure_ascii=False).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + n :])


MALFORMED_HEADERS = {
    "no_dagesh_capable": lambda h: h.pop("dagesh_capable"),
    "no_niqqud_capable": lambda h: h.pop("niqqud_capable"),
    # same size as the config expects, one character listed twice
    "duplicate_alphabet": lambda h: h["vocab"].update(
        alphabet=h["vocab"]["alphabet"][:-1] + "א"
    ),
    "alphabet_size": lambda h: h["vocab"].update(
        alphabet=h["vocab"]["alphabet"] + "Ω"
    ),
    # config values of the wrong type, which the shapes alone would not catch
    "float_hidden_dim": lambda h: h["config"].update(hidden_dim=16.0),
    "string_residual": lambda h: h["config"].update(residual="no"),
    "bool_num_layers": lambda h: h["config"].update(num_layers=True),
    # arrays of 2^42 floats: checked against the bytes left, never allocated
    "huge_hidden_dim": lambda h: h["config"].update(hidden_dim=1 << 20),
    # decision letters other than the codec's: alef takes a dagesh
    "other_decision_letters": lambda h: h.update(
        dagesh_capable="".join(sorted(h["dagesh_capable"] + "א"))
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRAIN_FAST = [
    "--embed-dim", "12",
    "--hidden-dim", "12",
    "--premodern-epochs", "0",
    "--modern-epochs", "1",
    "--batch-size", "64",
]


class TestTrain:
    def test_flags_only(self, capsys, bundled_corpus_root, tmp_path):
        out = tmp_path / "m.nkdm"
        code, stdout, _ = run(
            capsys,
            "train",
            "--corpus", str(bundled_corpus_root),
            "--out", str(out),
            "--seed", "5",
            *TRAIN_FAST,
        )
        assert code == 0
        assert stdout.strip() == str(out)
        ckpt = load_checkpoint(out)
        assert ckpt.meta["seed"] == 5
        assert ckpt.config.embed_dim == 12

    def test_config_file_and_flag_override(self, capsys, bundled_corpus_root, tmp_path):
        conf = tmp_path / "train.conf"
        conf.write_text(
            "seed = 1\nembed_dim = 12\nhidden_dim = 12\n"
            "premodern_epochs = 0\nmodern_epochs = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "m.nkdm"
        code, _, err = run(
            capsys,
            "-v",
            "train",
            "--corpus", str(bundled_corpus_root),
            "--out", str(out),
            "--config", str(conf),
            "--seed", "2",
        )
        assert code == 0
        ckpt = load_checkpoint(out)
        assert ckpt.meta["seed"] == 2  # flag beats file
        assert ckpt.config.embed_dim == 12  # file beats default
        assert "seed = 2" in err  # -v echoes the effective settings

    def test_unknown_config_key(self, capsys, bundled_corpus_root, tmp_path):
        conf = tmp_path / "train.conf"
        conf.write_text("learning_rate = 1\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(bundled_corpus_root),
            "--out", str(tmp_path / "m.nkdm"),
            "--config", str(conf),
        )
        assert code == 3
        assert "learning_rate" in err

    # config line -> flags given with it; a flag that overrides a file value
    # does not hide that value's wrong type.  residual, lr_policy, lr_gamma,
    # beta1, eps and log_every are settings since removed, now unknown keys
    BAD_CONFIG = {
        "hidden_dim = banana": [], "seed = 1.5": [], "residual = 1": [],
        "dropout = true": [], "lr_policy = 3": [], "lr_policy = bogus": [],
        "base_lr = 1.0": [], "hidden_dim = 8.5": ["--hidden-dim", "8"],
        "lr_gamma = -1": [], "beta1 = 0.9": [], "eps = 1e-8": [],
        "log_every = 10": [],
    }

    @pytest.mark.parametrize("line", list(BAD_CONFIG))
    def test_config_value_of_wrong_type(self, capsys, bundled_corpus_root, tmp_path, line):
        conf = tmp_path / "train.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        old_log = tmp_path / "m.nkdm.log"
        old_log.write_bytes(b"1\t0.0003\t3.5\tmodern\n")  # an earlier run's log
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(bundled_corpus_root),
            "--out", str(tmp_path / "m.nkdm"),
            "--config", str(conf),
            *self.BAD_CONFIG[line],
        )
        assert code == 3
        assert line.split()[0] in err
        assert not (tmp_path / "m.nkdm").exists()
        assert old_log.read_bytes() == b"1\t0.0003\t3.5\tmodern\n"

    def test_missing_corpus(self, capsys, tmp_path):
        old_log = tmp_path / "m.nkdm.log"
        old_log.write_bytes(b"1\t0.0003\t3.5\tmodern\n")  # an earlier run's log
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(tmp_path / "nowhere"),
            "--out", str(tmp_path / "m.nkdm"),
            *TRAIN_FAST,
        )
        assert code == 3
        assert "error:" in err
        assert old_log.read_bytes() == b"1\t0.0003\t3.5\tmodern\n"

    def test_missing_second_phase_split(self, capsys, bundled_corpus_root, tmp_path):
        # premodern/ would train, then modern/ is missing: nothing trains
        # and the earlier log stays as it was
        corpus = tmp_path / "corpus"
        (corpus / "premodern").mkdir(parents=True)
        for src in (bundled_corpus_root / "premodern").glob("*.txt"):
            (corpus / "premodern" / src.name).write_bytes(src.read_bytes())
        old_log = tmp_path / "m.nkdm.log"
        old_log.write_bytes(b"1\t0.0003\t3.5\tmodern\n")
        code, _, err = run(
            capsys,
            "train",
            "--corpus", str(corpus),
            "--out", str(tmp_path / "m.nkdm"),
            *TRAIN_FAST,
            "--premodern-epochs", "1",
        )
        assert code == 3
        assert err.startswith("error:") and "modern" in err
        assert old_log.read_bytes() == b"1\t0.0003\t3.5\tmodern\n"
        assert not (tmp_path / "m.nkdm").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--residual"], ["--lr-policy", "triangular"], ["--lr-gamma", "1.0"],
         ["--beta1", "0.9"], ["--beta2", "0.999"], ["--eps", "1e-8"],
         ["--log-every", "10"]],
        ids=["residual", "lr-policy", "lr-gamma", "beta1", "beta2", "eps", "log-every"],
    )
    def test_removed_flags_are_usage_errors(self, capsys, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", "c", "--out", str(tmp_path / "m.nkdm"), *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestDot:
    def test_file_to_file(self, capsys, random_checkpoint, tmp_path):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("שלום עולם\nשורה שניה\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            "dot",
            "--model", str(random_checkpoint),
            str(src),
            "--out", str(dst),
        )
        assert code == 0 and stdout == ""
        dotter = Dotter.load(random_checkpoint)
        want = "".join(
            dotter.dot(line) for line in src.read_text(encoding="utf-8").splitlines(True)
        )
        assert dst.read_text(encoding="utf-8") == want

    def test_stdin_to_stdout(self, capsys, monkeypatch, random_checkpoint):
        monkeypatch.setattr("sys.stdin", io.StringIO("שלום\n"))
        code, stdout, _ = run(capsys, "dot", "--model", str(random_checkpoint))
        assert code == 0
        assert stdout == Dotter.load(random_checkpoint).dot("שלום\n")

    def test_keep_existing_flag(self, capsys, random_checkpoint, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("קָטן\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            "dot",
            "--model", str(random_checkpoint),
            str(src),
            "--keep-existing",
        )
        assert code == 0
        assert "ָ" in stdout  # the input qamats survived

    def test_keep_existing_orphan_marks(self, capsys, monkeypatch, random_checkpoint):
        # a mark after a space or at the start of a line sits on no letter;
        # it is ignored and the stream goes on
        lines = ["שלום\n", "א ַ ב\n", "ַעוד\n", "סוף\n"]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        code, stdout, err = run(
            capsys, "dot", "--model", str(random_checkpoint), "--keep-existing"
        )
        assert code == 0, err
        dotter = Dotter.load(random_checkpoint)
        assert stdout == "".join(dotter.dot(line) for line in lines)

    CRLF = "שָלוֹם עולם\r\nשורה שניה, 2\r\n".encode("utf-8")

    @staticmethod
    def unmarked(data: bytes) -> bytes:
        text = data.decode("utf-8")
        return "".join(c for c in text if not "\u0591" <= c <= "\u05c7").encode("utf-8")

    def test_crlf_file_keeps_line_ends(self, capsys, random_checkpoint, tmp_path):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_bytes(self.CRLF)
        code, _, err = run(
            capsys, "dot", "--model", str(random_checkpoint), str(src), "--out", str(dst)
        )
        assert code == 0, err
        assert self.unmarked(dst.read_bytes()) == self.unmarked(self.CRLF)

    def test_crlf_stdin_keeps_line_ends(self, capsys, monkeypatch, random_checkpoint):
        stdin = io.TextIOWrapper(io.BytesIO(self.CRLF), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, stdout, err = run(capsys, "dot", "--model", str(random_checkpoint))
        assert code == 0, err
        assert self.unmarked(stdout.encode("utf-8")) == self.unmarked(self.CRLF)

    @pytest.mark.parametrize("via", ["named", "stdin"])
    def test_out_naming_the_input_is_refused(
        self, capsys, monkeypatch, random_checkpoint, tmp_path, via
    ):
        # opening --out for writing would empty the input before it is read;
        # a hard link names the same file by another path
        src = tmp_path / "in.txt"
        src.write_bytes("שלום עולם\n".encode("utf-8"))
        (tmp_path / "link.txt").hardlink_to(src)
        for out in (src, tmp_path / "link.txt"):
            with open(src, encoding="utf-8") as stdin:
                if via == "stdin":
                    monkeypatch.setattr("sys.stdin", stdin)
                named = [str(src)] if via == "named" else []
                code, stdout, err = run(
                    capsys, "dot", "--model", str(random_checkpoint), *named,
                    "--out", str(out),
                )
            assert (code, stdout) == (3, "")
            assert err.startswith("error:") and str(out) in err
            assert src.read_bytes() == "שלום עולם\n".encode("utf-8")

    def test_unwritable_out_closes_input(self, capsys, monkeypatch, random_checkpoint, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("שלום\n", encoding="utf-8")
        opened = []

        def tracked_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr("hebdot.cli.open", tracked_open, raising=False)
        missing_dir = tmp_path / "no" / "out.txt"
        code, _, err = run(
            capsys, "dot", "--model", str(random_checkpoint), str(src), "--out", str(missing_dir)
        )
        assert code == 3 and "error:" in err
        assert len(opened) == 1 and opened[0].closed

    def test_missing_model(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "dot", "--model", str(tmp_path / "no.nkdm"), str(tmp_path / "x")
        )
        assert code == 3

    def test_corrupt_model(self, capsys, tmp_path):
        bad = tmp_path / "bad.nkdm"
        bad.write_bytes(b"not a checkpoint at all")
        src = tmp_path / "in.txt"
        src.write_text("שלום\n", encoding="utf-8")
        code, _, err = run(capsys, "dot", "--model", str(bad), str(src))
        assert code == 4
        assert "error:" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header(self, capsys, random_checkpoint, tmp_path, case):
        bad = tmp_path / "bad.nkdm"
        rewrite_header(random_checkpoint, bad, MALFORMED_HEADERS[case])
        src = tmp_path / "in.txt"
        src.write_text("שלום\n", encoding="utf-8")
        code, _, err = run(capsys, "dot", "--model", str(bad), str(src))
        assert code == 4
        assert "error:" in err and "Traceback" not in err

    def test_header_with_residual_false_loads(self, capsys, random_checkpoint, tmp_path):
        # every checkpoint written while residual was a setting says false
        old = tmp_path / "old.nkdm"
        rewrite_header(random_checkpoint, old, lambda h: h["config"].update(residual=False))
        src = tmp_path / "in.txt"
        src.write_text("שלום עולם\nשורה שניה\n", encoding="utf-8")
        outs = []
        for model in (random_checkpoint, old):
            code, out, err = run(capsys, "dot", "--model", str(model), str(src))
            assert code == 0 and err == ""
            outs.append(out.encode("utf-8"))
        assert outs[0] == outs[1]

    def test_header_with_residual_true_is_refused(self, capsys, random_checkpoint, tmp_path):
        bad = tmp_path / "bad.nkdm"
        rewrite_header(random_checkpoint, bad, lambda h: h["config"].update(residual=True))
        src = tmp_path / "in.txt"
        src.write_text("שלום\n", encoding="utf-8")
        code, out, err = run(capsys, "dot", "--model", str(bad), str(src))
        assert (code, out) == (4, "")
        assert err.startswith("error:") and "residual" in err


class TestBadModels:
    """Checkpoints that parse but do not fit their config exit 4 at load;
    weights that drive a state or a logit non-finite exit 4 from dot and
    eval, with an error line and no traceback."""

    EDITS = {
        "missing": lambda p: p.pop("proj_b"),
        "misshapen": lambda p: p.update(proj_W=p["proj_W"][:, :-1]),
        "nan_recurrent": lambda p: p["lstm0_fwd_Wh"].__setitem__((0, 0), np.nan),
        "nan_projection": lambda p: p["proj_W"].__setitem__((0, 0), np.nan),
    }

    @pytest.fixture(params=sorted(EDITS))
    def bad_model(self, request, random_checkpoint, tmp_path):
        ckpt = load_checkpoint(random_checkpoint)
        params = {k: v.copy() for k, v in ckpt.params.items()}
        self.EDITS[request.param](params)
        path = tmp_path / "bad.nkdm"
        save_checkpoint(path, params, ckpt.config, ckpt.vocab)
        return path

    def test_dot(self, capsys, bad_model, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("שלום עולם\n", encoding="utf-8")
        code, out, err = run(capsys, "dot", "--model", str(bad_model), str(src))
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_eval(self, capsys, bad_model, bundled_corpus_root):
        code, out, err = run(
            capsys, "eval", "--model", str(bad_model), "--gold",
            str(bundled_corpus_root / "test"),
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error:")


class TestDamagedCheckpointFuzz:
    """Seeded damage to a hidden-8 checkpoint, each case run through ``dot``
    in this process: a truncated file or an oversized length field exits 4
    with an error line, and a bit flip outside the float data exits 4 or,
    where the file still loads, 0 with only diacritics added.  Flips in the
    float data are left out: only a checksum could catch them."""

    TEXT = "שלום עולם\n"

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        vocab = Vocabulary()
        config = ModelConfig(vocab_size=vocab.size, embed_dim=8, hidden_dim=8)
        path = tmp_path_factory.mktemp("fuzz") / "m.nkdm"
        save_checkpoint(path, init_params(config, seed=7), config, vocab)
        return path.read_bytes()

    def dot(self, capsys, tmp_path, blob):
        model, src = tmp_path / "bad.nkdm", tmp_path / "in.txt"
        model.write_bytes(blob)
        src.write_text(self.TEXT, encoding="utf-8")
        return run(capsys, "dot", "--model", str(model), str(src))

    def test_truncations(self, capsys, tmp_path, blob):
        fields = checkpoint_fields(blob)
        data = [(f, a, b) for f, a, b in fields if f.endswith(" data")]
        cuts = {f"inside {f}": (a + b) // 2 for f, a, b in fields if not f.endswith(" data")}
        cuts |= {f"inside {f}": (a + b) // 2 for f, a, b in (data[0], data[-1])}
        cuts["one byte short"] = len(blob) - 1
        assert len(cuts) > 90
        for case, cut in cuts.items():
            code, out, err = self.dot(capsys, tmp_path, blob[:cut])
            assert (code, out) == (4, ""), case
            assert err.startswith("error:") and "truncated" in err, case

    def test_lengths_of_ff_ff_ff_ff(self, capsys, tmp_path, blob):
        starts = {f: a for f, a, _ in checkpoint_fields(blob)}
        first = next(f for f in starts if f.endswith(" name"))[: -len(" name")]
        for field in ("header length", "array count", f"{first} name length",
                      f"{first} rank", f"{first} dims"):
            at = starts[field]
            code, out, err = self.dot(capsys, tmp_path, blob[:at] + b"\xff" * 4 + blob[at + 4 :])
            assert (code, out) == (4, ""), field
            assert err.startswith("error:") and "Traceback" not in err, field

    def test_bit_flips_outside_the_floats(self, capsys, tmp_path, blob):
        offsets = [
            i for f, a, b in checkpoint_fields(blob) if not f.endswith(" data")
            for i in range(a, b)
        ]
        rng = np.random.default_rng(15)
        exits = []
        for at, bit in zip(rng.choice(offsets, size=104, replace=False),
                           rng.integers(0, 8, size=104)):
            flipped = bytearray(blob)
            flipped[at] ^= 1 << bit
            code, out, err = self.dot(capsys, tmp_path, bytes(flipped))
            case = f"bit {bit} of byte {at}"
            assert code in (0, 4), case
            if code == 4:
                assert out == "" and err.startswith("error:"), case
                assert "Traceback" not in err, case
            else:  # the file still loads: dotting adds marks and nothing else
                assert "".join(c for c in out if not "\u0591" <= c <= "\u05c7") == self.TEXT, case
            exits.append(code)
        assert exits.count(4) > len(exits) // 2  # 98 of 104 at this seed


# config lines: known keys (and a few unknown ones) with values of any type; text values
# hold only characters a UTF-8 file can store (no lone surrogates)
config_lines = st.lists(
    st.tuples(
        st.sampled_from(sorted(FIELD_TYPES) + ["learning_rate", "vocab_size"]),
        st.one_of(
            st.integers(-5, 500).map(str),
            st.floats(allow_nan=True).map(repr),
            st.sampled_from(["true", "False", "banana"]),
            st.text(st.characters(codec="utf-8", exclude_characters="#\n\r"), max_size=8),
        ),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    max_size=6,
)


@given(lines=config_lines)
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_merge_gives_valid_settings_or_value_error(tmp_path, lines):
    conf = tmp_path / "train.conf"
    conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = build_parser().parse_args(
        ["train", "--corpus", "c", "--out", "o", "--config", str(conf)]
    )
    try:
        config, plan = _merge_settings(args)
    except ValueError:
        return
    assert isinstance(plan, TrainPlan)
    merged = dataclasses.asdict(plan)
    if config is not None:
        assert isinstance(config, ModelConfig)
        merged.update(dataclasses.asdict(config))
    for field, value in merged.items():
        want = FIELD_TYPES[field]
        assert isinstance(value, bool) == (want is bool), field
        assert isinstance(value, (int, float) if want is float else want), field


class TestEval:
    def test_report(self, capsys, random_checkpoint, bundled_corpus_root):
        code, stdout, _ = run(
            capsys,
            "eval",
            "--model", str(random_checkpoint),
            "--gold", str(bundled_corpus_root / "validation"),
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "doc_id\tdec\tcha\twor\tvoc"
        assert lines[-1].startswith("MACRO\t")
        assert len(lines) == 2 + 2  # header + 2 docs + macro

    def test_counts_mode(self, capsys, random_checkpoint, bundled_corpus_root):
        code, stdout, _ = run(
            capsys,
            "eval",
            "--model", str(random_checkpoint),
            "--gold", str(bundled_corpus_root / "validation"),
            "--counts",
        )
        assert code == 0
        assert "/" in stdout.splitlines()[1]

    def test_baseline_side_by_side(self, capsys, random_checkpoint, bundled_corpus_root):
        code, stdout, _ = run(
            capsys,
            "eval",
            "--model", str(random_checkpoint),
            "--baseline", str(random_checkpoint),
            "--gold", str(bundled_corpus_root / "validation"),
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "metric\tmodel\tbaseline"
        assert len(lines) == 5
        for line in lines[1:]:
            name, a, b = line.split("\t")
            assert a == b  # same checkpoint on both sides

    def test_empty_gold_dir(self, capsys, random_checkpoint, tmp_path):
        code, _, err = run(
            capsys,
            "eval",
            "--model", str(random_checkpoint),
            "--gold", str(tmp_path),
        )
        assert code == 3


class TestStats:
    def test_all_splits(self, capsys, bundled_corpus_root):
        code, stdout, _ = run(capsys, "stats", "--corpus", str(bundled_corpus_root))
        assert code == 0
        assert stdout.strip().splitlines() == BUNDLED_STATS

    def test_subset(self, capsys, bundled_corpus_root):
        code, stdout, _ = run(
            capsys, "stats", "--corpus", str(bundled_corpus_root), "modern"
        )
        assert code == 0
        assert stdout.strip().splitlines() == [BUNDLED_STATS[1]]

    def test_unknown_split(self, capsys, bundled_corpus_root):
        code, _, err = run(
            capsys, "stats", "--corpus", str(bundled_corpus_root), "dev"
        )
        assert code == 3
        assert "dev" in err

    def test_empty_corpus(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--corpus", str(tmp_path))
        assert code == 3

    def test_marks_before_first_letter(self, capsys, caplog, tmp_path):
        # patah, space, qamats, then the word
        (tmp_path / "modern").mkdir()
        (tmp_path / "modern" / "lead.txt").write_text("ַ ָשלום", encoding="utf-8")
        code, stdout, _ = run(capsys, "stats", "--corpus", str(tmp_path))
        assert code == 0
        assert stdout.splitlines() == ["modern\t1\t1\t4"]
        assert any("leading mark" in r.message for r in caplog.records)


class TestGradcheck:
    def test_pass(self, capsys):
        code, stdout, _ = run(
            capsys,
            "gradcheck",
            "--samples", "4",
            "--width", "6",
            "--embed-dim", "6",
            "--hidden-dim", "6",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[-1] == "PASS"
        assert any(line.startswith("max_rel_err\t") for line in lines)
        assert any(line.startswith("embedding\t") for line in lines)

    def test_fail_exit_code(self, capsys):
        code, stdout, _ = run(
            capsys,
            "gradcheck",
            "--samples", "2",
            "--width", "5",
            "--embed-dim", "6",
            "--hidden-dim", "6",
            "--tolerance", "1e-12",
        )
        assert code == 1
        assert stdout.strip().splitlines()[-1] == "FAIL"

    @pytest.mark.parametrize(
        "flag, name", [("--batch", "batch"), ("--width", "width"), ("--samples", "samples")]
    )
    def test_empty_sizes_are_data_errors(self, capsys, flag, name):
        # a check that compares nothing neither passes nor crashes
        code, stdout, stderr = run(capsys, "gradcheck", flag, "0")
        assert code == 3
        assert stdout == ""
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr
        assert name in lines[0]

    def test_vocabulary_without_letters_is_a_data_error(self, capsys):
        # ids 0 and 1 are padding and fallback; nothing is left to draw
        code, stdout, stderr = run(capsys, "gradcheck", "--vocab-size", "2")
        assert code == 3
        assert stdout == ""
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr
        assert "vocab_size" in lines[0]


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_train_requires_corpus(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", "x.nkdm"])
        assert exc.value.code == 2
