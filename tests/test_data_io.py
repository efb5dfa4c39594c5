"""Container format, preprocessing, manifest loading, and the synthetic
generator."""

import math
import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotalign import data_io
from spotalign.errors import ContractError, DataError, ShapeError


class TestTensorContainer:
    def test_roundtrip_all_dtypes_and_ranks(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = {
            "f32_r1": rng.normal(size=5).astype(np.float32),
            "f64_r2": rng.normal(size=(3, 4)),
            "i32_r3": rng.integers(-100, 100, size=(2, 3, 4)).astype(np.int32),
            "f64_r3": rng.normal(size=(2, 2, 2)),
            "f64_big_endian": rng.normal(size=(3, 2)).astype(">f8"),
            "f32_big_endian": rng.normal(size=4).astype(">f4"),
            "i32_big_endian": rng.integers(-100, 100, size=(2, 2)).astype(">i4"),
            "f64_zero_rows": np.zeros((0, 3)),
            "f64_zero_cols": np.zeros((2, 0)),
        }
        path = tmp_path / "t.gdml"
        data_io.write_container(path, entries)
        back = data_io.read_container(path)
        assert list(back) == list(entries)
        for name, arr in entries.items():
            want = arr.astype(arr.dtype.newbyteorder("="))  # entries come back native-order
            assert back[name].dtype == want.dtype
            assert back[name].shape == want.shape
            assert back[name].tobytes() == want.tobytes()
            assert back[name].flags.writeable and back[name].flags.c_contiguous

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(1, 5, size=rank))
        arr = rng.normal(size=shape)
        path = tmp_path_factory.mktemp("cont") / "t.gdml"
        data_io.write_container(path, {"x": arr})
        assert data_io.read_container(path)["x"].tobytes() == arr.tobytes()

    def test_reads_from_a_pipe(self, tmp_path):
        # a pipe has no size to check payloads against, so it is buffered whole
        arr = np.arange(12.0).reshape(3, 4)
        data_io.write_container(tmp_path / "t.gdml", {"x": arr})
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes((tmp_path / "t.gdml").read_bytes()))
        writer.start()
        try:
            assert data_io.read_container(fifo)["x"].tobytes() == arr.tobytes()
        finally:
            writer.join()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.gdml"
        data_io.write_container(path, {"ab": np.zeros(2, dtype=np.float32)})
        blob = path.read_bytes()
        assert blob[:4] == b"GDML"
        assert struct.unpack_from("<H", blob, 4)[0] == 1  # version
        assert struct.unpack_from("<I", blob, 6)[0] == 1  # entry count
        assert struct.unpack_from("<H", blob, 10)[0] == 2  # name length
        assert blob[12:14] == b"ab"
        tag, rank = struct.unpack_from("<BB", blob, 14)
        assert (tag, rank) == (1, 1)
        assert struct.unpack_from("<I", blob, 16)[0] == 2
        assert len(blob) == 20 + 2 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gdml"
        path.write_bytes(b"NOPX" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            data_io.read_container(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.gdml"
        data_io.write_container(path, {"x": np.zeros((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataError, match="truncated"):
            data_io.read_container(path)

    def test_unsupported_dtype(self, tmp_path):
        for dtype in (complex, np.float16):
            with pytest.raises(ContractError, match="unsupported dtype"):
                data_io.write_container(tmp_path / "t.gdml", {"x": np.zeros(2, dtype=dtype)})

    @pytest.mark.parametrize("name,arr", [
        ("z", np.zeros(2, dtype=np.complex128)),
        ("big", np.array([2**31])),
        ("n" * 70_000, np.zeros(2)),
        ("\u00e9" * 32_768, np.zeros(2)),  # 32,768 characters, 65,536 UTF-8 bytes
    ], ids=["complex", "over_i32", "long_name", "long_utf8_name"])
    def test_refused_entry_leaves_no_partial_file(self, tmp_path, name, arr):
        path = tmp_path / "t.gdml"
        data_io.write_container(path, {"x": np.arange(3.0)})
        before = path.read_bytes()
        with pytest.raises(ContractError, match=f"entry {name[:40]!r}"):
            data_io.write_container(path, {"x": np.arange(3.0), name: arr})
        assert path.read_bytes() == before
        with pytest.raises(ContractError):
            data_io.write_container(tmp_path / "new.gdml", {"x": np.arange(3.0), name: arr})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.gdml"]

    def test_name_of_65535_bytes_roundtrips(self, tmp_path):
        name = "n" * 0xFFFF
        data_io.write_container(tmp_path / "t.gdml", {name: np.arange(3.0)})
        assert data_io.read_container(tmp_path / "t.gdml")[name].tolist() == [0.0, 1.0, 2.0]


class TestPreprocess:
    def test_hand_case(self):
        raw = np.array([[1.0, 3.0]])
        out = data_io.preprocess_expression(raw, ["a", "b"], ["a", "b"])
        expected = [math.log(1 + 2500.0), math.log(1 + 7500.0)]
        np.testing.assert_allclose(out.expression[0], expected, rtol=1e-12)
        np.testing.assert_allclose(out.expression[0], [7.824, 8.923], atol=5e-4)

    def test_zero_total_spot_dropped_and_counted(self):
        raw = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
        out = data_io.preprocess_expression(raw, ["a", "b"], ["a"])
        assert out.n_dropped == 1
        assert out.keep_mask.tolist() == [True, False, True]
        assert out.expression.shape == (2, 1)

    def test_output_nonnegative_finite(self):
        rng = np.random.default_rng(1)
        raw = rng.poisson(2.0, size=(20, 30)).astype(float)
        raw[:, 0] += 1  # keep every spot's total positive
        names = [f"g{i}" for i in range(30)]
        out = data_io.preprocess_expression(raw, names, names[:10])
        assert np.all(np.isfinite(out.expression))
        assert np.all(out.expression >= 0)

    def test_totals_use_full_universe(self):
        # selecting a subset must not change the normalization totals
        raw = np.array([[1.0, 3.0, 6.0]])
        full = data_io.preprocess_expression(raw, ["a", "b", "c"], ["a"])
        np.testing.assert_allclose(full.expression[0, 0], math.log(1 + 1e4 / 10.0), rtol=1e-12)

    @pytest.mark.parametrize("raw", [
        [[1e305, 1.0]],  # the scaled count overflows
        [[1.0, 1e308, 1e308]],  # the total overflows; the selected count would scale to 0
    ])
    def test_counts_that_overflow_when_normalized_raise(self, raw):
        names = ["a", "b", "c"][: len(raw[0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="small enough to normalize"):
                data_io.preprocess_expression(np.array(raw), names, ["a"])

    def test_overflow_message_names_largest_count(self):
        with pytest.raises(DataError) as info:
            data_io.preprocess_expression(np.array([[1e305, 1.0]]), ["a", "b"], ["a"])
        assert str(info.value) == "counts must be small enough to normalize, largest 1e+305"

    @pytest.mark.parametrize("raw", [
        [[-5.0, 5.0], [1.0, 2.0]],  # the total is zero: not a zero-total spot to drop
        [[-1e-9, 1.0], [1.0, 2.0]],  # would log-transform to a negative expression
        [[np.nan, 1.0], [1.0, 2.0]],
        [[np.inf, 1.0], [1.0, 2.0]],
    ])
    def test_negative_or_non_finite_counts_raise(self, raw):
        with pytest.raises(DataError) as info:
            data_io.preprocess_expression(np.array(raw), ["a", "b"], ["a", "b"])
        assert str(info.value) == "counts must be finite and >= 0"

    def test_missing_gene_listed(self):
        with pytest.raises(DataError, match="nope"):
            data_io.preprocess_expression(np.ones((2, 2)), ["a", "b"], ["a", "nope"])

    def test_missing_genes_listed_in_gene_list_order_before_shape_check(self):
        with pytest.raises(DataError) as info:
            data_io.preprocess_expression(np.ones((2, 5)), ["a", "b"], ["z", "a", "y", "z"])
        assert str(info.value) == "genes not present in the count matrix: ['z', 'y', 'z']"

    def test_commutes_with_spot_permutation(self):
        rng = np.random.default_rng(2)
        raw = rng.poisson(3.0, size=(10, 6)).astype(float) + 1
        names = [f"g{i}" for i in range(6)]
        perm = rng.permutation(10)
        direct = data_io.preprocess_expression(raw, names, names[:3]).expression
        permuted = data_io.preprocess_expression(raw[perm], names, names[:3]).expression
        np.testing.assert_array_equal(permuted, direct[perm])


class TestSpotBatch:
    def test_spot_count_mismatch(self):
        with pytest.raises(ShapeError, match="neighbor_feat"):
            data_io.SpotBatch(
                sample_id="s",
                patient_id="p",
                local_feat=np.zeros((3, 4)),
                neighbor_feat=np.zeros((2, 5, 4)),
                expression=np.zeros((3, 2)),
                coords=np.zeros((3, 2), dtype=np.int32),
            )

    def test_negative_expression_rejected(self):
        with pytest.raises(DataError, match="finite"):
            data_io.SpotBatch(
                sample_id="s",
                patient_id="p",
                local_feat=np.zeros((2, 4)),
                neighbor_feat=np.zeros((2, 5, 4)),
                expression=np.array([[1.0, -0.5], [0.0, 0.0]]),
                coords=np.zeros((2, 2), dtype=np.int32),
            )

    def test_take_subsets_every_field(self):
        spec = data_io.SynthSpec(n_spots=10, n_slides=1, latent_dim=3, n_genes=4, d_in=6, seed=3)
        batch = data_io.batches_from_study(data_io.synth_generate(spec))[0]
        sub = batch.take([2, 5])
        assert sub.n_spots == 2
        np.testing.assert_array_equal(sub.local_feat, batch.local_feat[[2, 5]])
        np.testing.assert_array_equal(sub.coords, batch.coords[[2, 5]])


class TestReadCoords:
    def test_int32_limits_are_kept(self, tmp_path):
        path = tmp_path / "coords.tsv"
        path.write_text("spot_id\trow\tcol\na\t-2147483648\t2147483647\n")
        ids, coords = data_io.read_coords(path)
        assert ids == ["a"] and coords.tolist() == [[-(2**31), 2**31 - 1]]

    @pytest.mark.parametrize("row,col", [("2147483648", "0"), ("0", "-2147483649"),
                                         ("3000000000", "5")])
    def test_outside_int32_names_file_and_line(self, tmp_path, row, col):
        path = tmp_path / "coords.tsv"
        path.write_text(f"spot_id\trow\tcol\na\t1\t2\n\nb\t{row}\t{col}\n")
        with pytest.raises(DataError, match=rf"^{path}: line 4: row or col outside int32"):
            data_io.read_coords(path)


class TestStudyRoundtrip:
    def test_empty_manifest_gives_empty_list(self, tmp_path):
        path = tmp_path / "manifest.ini"
        path.write_text("")
        assert data_io.load_study(path) == []

    def test_write_then_load_matches_in_memory(self, tmp_path):
        spec = data_io.SynthSpec(n_spots=12, n_slides=2, latent_dim=3, n_genes=5, d_in=6, seed=4)
        study = data_io.synth_generate(spec)
        manifest = data_io.write_study(study, tmp_path)
        loaded = data_io.load_study(manifest)
        direct = data_io.batches_from_study(study)
        assert len(loaded) == len(direct)
        for a, b in zip(loaded, direct):
            assert a.sample_id == b.sample_id
            assert a.patient_id == b.patient_id
            assert a.local_feat.tobytes() == b.local_feat.tobytes()
            assert a.neighbor_feat.tobytes() == b.neighbor_feat.tobytes()
            assert a.expression.tobytes() == b.expression.tobytes()
            assert a.coords.tobytes() == b.coords.tobytes()

    def test_load_peak_near_the_bytes_it_returns(self, tmp_path):
        # each payload is read once, into the array that is returned
        spec = data_io.SynthSpec(n_spots=1000, n_slides=2, d_in=64, seed=3)
        manifest = data_io.write_study(data_io.synth_generate(spec), tmp_path)
        tracemalloc.start()
        try:
            batches = data_io.load_study(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(arr.nbytes for b in batches
                   for arr in (b.local_feat, b.neighbor_feat, b.expression, b.coords))
        assert peak <= 1.25 * held, f"peak {peak / held:.2f}x the {held / 2**20:.1f} MiB returned"

    def test_zero_total_spot_warns_at_load(self, tmp_path):
        spec = data_io.SynthSpec(n_spots=8, n_slides=1, latent_dim=3, n_genes=5, d_in=6, seed=12)
        study = data_io.synth_generate(spec)
        manifest = data_io.write_study(study, tmp_path)
        expr_path = tmp_path / "S00_expression.gdml"
        counts = data_io.read_container(expr_path)["counts"].copy()
        counts[2, :] = 0
        data_io.write_container(expr_path, {"counts": counts})
        with pytest.warns(UserWarning, match="dropped 1 zero-total"):
            batches = data_io.load_study(manifest)
        assert batches[0].n_spots == 7

    def test_spot_count_mismatch_names_file(self, tmp_path):
        spec = data_io.SynthSpec(n_spots=9, n_slides=1, latent_dim=3, n_genes=5, d_in=6, seed=5)
        study = data_io.synth_generate(spec)
        manifest = data_io.write_study(study, tmp_path)
        # corrupt the expression container: drop one spot row
        expr_path = tmp_path / "S00_expression.gdml"
        counts = data_io.read_container(expr_path)["counts"]
        data_io.write_container(expr_path, {"counts": counts[:-1]})
        with pytest.raises(DataError, match="S00_expression.gdml.*8 spots, expected 9"):
            data_io.load_study(manifest)

    def test_write_ini_round_trips_through_read_ini(self, tmp_path):
        path = tmp_path / "x.ini"
        data_io.write_ini(path, {"Sec": {"CaseKept": "100%", "path": tmp_path, "n": 3}})
        parser = data_io.read_ini(path)
        assert dict(parser["Sec"]) == {"CaseKept": "100%", "path": str(tmp_path), "n": "3"}

    def test_unknown_manifest_key_rejected(self, tmp_path):
        spec = data_io.SynthSpec(n_spots=6, n_slides=1, latent_dim=3, n_genes=4, d_in=6, seed=6)
        manifest = data_io.write_study(data_io.synth_generate(spec), tmp_path)
        text = manifest.read_text().replace("patient =", "patiend =")
        manifest.write_text(text)
        with pytest.raises(DataError):
            data_io.load_study(manifest)


def dict_lookup_grid(n_spots, neighbor_grid):
    """The spot grid as synth_generate built it per slide: a coordinate ->
    index dict and one lookup per (offset, spot)."""
    side = math.ceil(math.sqrt(n_spots))
    coords = np.array([(i // side, i % side) for i in range(n_spots)], dtype=np.int32)
    by_coord = {(int(r), int(c)): i for i, (r, c) in enumerate(coords)}
    half = neighbor_grid // 2
    offsets = [(dr, dc) for dr in range(-half, half + 1) for dc in range(-half, half + 1)]
    stencil = [
        [by_coord.get((int(r) + dr, int(c) + dc), i) for i, (r, c) in enumerate(coords)]
        for dr, dc in offsets
    ]
    return coords, np.array(stencil).reshape(len(offsets), n_spots)


class TestSynthGenerate:
    @pytest.mark.parametrize("neighbor_grid", [1, 3, 5, 7])
    @pytest.mark.parametrize("n_spots", [*range(1, 51), 400, 401])
    def test_spot_grid_matches_dict_lookup(self, n_spots, neighbor_grid):
        coords, stencil = data_io._spot_grid(n_spots, neighbor_grid)
        want_coords, want_stencil = dict_lookup_grid(n_spots, neighbor_grid)
        assert coords.dtype == np.int32 and coords.tobytes() == want_coords.tobytes()
        np.testing.assert_array_equal(stencil, want_stencil)

    def test_samples_own_their_coords(self):
        study = data_io.synth_generate(data_io.SynthSpec(n_spots=9, n_slides=2, seed=1))
        a, b = (s.coords for s in study.samples)
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_identical(self):
        spec = data_io.SynthSpec(n_spots=20, n_slides=2, latent_dim=4, n_genes=8, d_in=10, seed=7)
        a = data_io.synth_generate(spec)
        b = data_io.synth_generate(spec)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.local.tobytes() == sb.local.tobytes()
            assert sa.neighbor.tobytes() == sb.neighbor.tobytes()
            assert sa.counts.tobytes() == sb.counts.tobytes()
            assert sa.latents.tobytes() == sb.latents.tobytes()

    def test_expression_marginals_reproducible(self):
        spec = data_io.SynthSpec(n_spots=50, n_slides=1, latent_dim=4, n_genes=10, d_in=8, seed=8)
        means = []
        for _ in range(2):
            batch = data_io.batches_from_study(data_io.synth_generate(spec))[0]
            means.append((batch.expression.mean(), batch.expression.var()))
        assert means[0] == means[1]

    def test_rho_validation(self):
        with pytest.raises(ContractError):
            data_io.SynthSpec(rho=1.5)
        with pytest.raises(ContractError):
            data_io.SynthSpec(sigma=-0.1)

    def test_fully_coupled_noise_free_latents_explain_expression(self):
        # rho=1, sigma=0 at a high count scale: an oracle regression from the
        # true latents (quadratic design, absorbing the generator's smooth
        # softplus/log nonlinearity) must recover expression almost perfectly
        from itertools import combinations_with_replacement

        spec = data_io.SynthSpec(
            n_spots=300, n_slides=1, latent_dim=4, n_genes=20, d_in=8,
            rho=1.0, sigma=0.0, seed=9, count_scale=200.0,
        )
        study = data_io.synth_generate(spec)
        batch = data_io.batches_from_study(study)[0]
        keep = data_io.preprocess_expression(
            study.samples[0].counts, study.column_names, study.gene_list
        ).keep_mask
        z = study.samples[0].latents[keep]
        quad = np.stack(
            [z[:, i] * z[:, j] for i, j in combinations_with_replacement(range(z.shape[1]), 2)],
            axis=1,
        )
        design = np.concatenate([z, quad, np.ones((z.shape[0], 1))], axis=1)
        coef, *_ = np.linalg.lstsq(design, batch.expression, rcond=None)
        fitted = design @ coef
        pccs = [
            float(np.corrcoef(batch.expression[:, g], fitted[:, g])[0, 1])
            for g in range(batch.expression.shape[1])
        ]
        assert float(np.mean(pccs)) > 0.95

    def test_decoupled_latents_do_not_explain_expression(self):
        spec = data_io.SynthSpec(
            n_spots=300, n_slides=1, latent_dim=4, n_genes=20, d_in=8,
            rho=0.0, sigma=0.0, seed=10,
        )
        study = data_io.synth_generate(spec)
        batch = data_io.batches_from_study(study)[0]
        keep = data_io.preprocess_expression(
            study.samples[0].counts, study.column_names, study.gene_list
        ).keep_mask
        z = study.samples[0].latents[keep]
        n = z.shape[0]
        half = n // 2
        design = np.concatenate([z, np.ones((n, 1))], axis=1)
        coef, *_ = np.linalg.lstsq(design[:half], batch.expression[:half], rcond=None)
        fitted = design[half:] @ coef
        pccs = [
            float(np.corrcoef(batch.expression[half:, g], fitted[:, g])[0, 1])
            for g in range(batch.expression.shape[1])
        ]
        assert abs(float(np.mean(pccs))) < 0.1
