"""Study ingestion, preprocessing, the on-disk tensor container, and a
synthetic coupled-modality generator for desk-scale experiments.

A study on disk is a plain-text manifest pointing at per-sample tensor
containers plus tab-separated spot coordinates:

    [study]
    columns = columns.txt        # column names of the raw count matrices
    genes = genes.txt            # user-supplied selection, one name per line

    [sample:S00]
    patient = P00
    local = S00_local.gdml       # container entry "local", N x D_in
    neighbor = S00_neighbor.gdml # container entry "neighbor", N x T x D_in
    expression = S00_expression.gdml  # container entry "counts", N x M_all
    coords = S00_coords.tsv      # spot_id <tab> row <tab> col

All paths are relative to the manifest's directory.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import stat
import struct
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, ShapeError, check_fields

# ---------------------------------------------------------------------------
# binary tensor container

MAGIC = b"GDML"
VERSION = 1

_TAG_TO_DTYPE = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i4")}


def _dtype_tag(name: str, arr: np.ndarray) -> tuple[int, np.ndarray]:
    """The entry's tag and its little-endian data: float32 and float64 of
    either byte order, and integers within the i32 range."""
    if arr.dtype.kind == "f" and arr.dtype.itemsize in (4, 8):
        tag = 1 if arr.dtype.itemsize == 4 else 2
        return tag, arr.astype(_TAG_TO_DTYPE[tag], copy=False)
    if np.issubdtype(arr.dtype, np.integer):
        as32 = arr.astype(np.int64, copy=False)
        if as32.size and (as32.max() > np.iinfo(np.int32).max or as32.min() < np.iinfo(np.int32).min):
            raise ContractError(f"integer entry {name!r} exceeds the i32 range of the container format")
        return 3, arr.astype("<i4", copy=False)
    raise ContractError(f"unsupported dtype for container entry {name!r}: {arr.dtype}")


def check_entry_name(name: str) -> bytes:
    """``name`` in UTF-8; ContractError if over the 65,535 bytes a name holds."""
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ContractError(f"entry {name[:40]!r}... has a {len(encoded)}-byte name, over 65535")
    return encoded


def write_container(path, entries: dict[str, np.ndarray]) -> None:
    """Write named arrays to the binary container format (little-endian).
    Every entry is checked before the file is opened, so one the format cannot
    hold (a name over 65,535 UTF-8 bytes, an unsupported dtype) raises
    ContractError naming it and leaves any file as it was."""
    packed = [(check_entry_name(name), *_dtype_tag(name, np.ascontiguousarray(arr)))
              for name, arr in entries.items()]
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<H", VERSION))
        f.write(struct.pack("<I", len(packed)))
        for encoded, tag, data in packed:
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<BB", tag, data.ndim))
            for dim in data.shape:
                f.write(struct.pack("<I", dim))
            f.write(memoryview(data))


def read_container(path) -> dict[str, np.ndarray]:
    """Read a container back; raises DataError on any structural problem.

    Each payload is read once, straight into the writable, native-order,
    C-contiguous array returned for it, after its size is checked against
    the bytes left in the file, so corrupt dims cannot force a huge allocation.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode):
                return _read_entries(path, f, st.st_size)
            data = f.read()  # a pipe has no size to check payloads against
            return _read_entries(path, io.BytesIO(data), len(data))
    except OSError as exc:
        raise DataError(f"cannot read container {path}: {exc}") from exc


def _read_entries(path: Path, f, size: int) -> dict[str, np.ndarray]:
    magic = f.read(4)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")

    def unpack(fmt: str) -> tuple:
        want = struct.calcsize(fmt)
        raw = f.read(want)
        if len(raw) != want:
            raise DataError(f"{path}: truncated header at byte {f.tell() - len(raw)}")
        return struct.unpack(fmt, raw)

    (version,) = unpack("<H")
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    (count,) = unpack("<I")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        start = f.tell()
        try:
            name = f.read(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: entry name at byte {start} is not UTF-8") from exc
        tag, rank = unpack("<BB")
        if tag not in _TAG_TO_DTYPE:
            raise DataError(f"{path}: unknown dtype tag {tag} for entry {name!r}")
        if rank > 64:  # numpy's limit on array dimensions
            raise DataError(f"{path}: entry {name!r} has rank {rank}, above numpy's 64")
        dims = unpack(f"<{rank}I") if rank else ()
        dtype = _TAG_TO_DTYPE[tag]
        nbytes = math.prod(dims) * dtype.itemsize  # exact: corrupt dims cannot wrap
        if nbytes > size - f.tell():
            raise DataError(f"{path}: truncated payload for entry {name!r}")
        if name in entries:
            raise DataError(f"{path}: duplicate entry name {name!r}")
        try:
            arr = np.empty(dims, dtype=dtype)
        except ValueError as exc:  # zero elements, but the other dims overflow numpy's size
            raise DataError(f"{path}: entry {name!r} has dims {dims} numpy cannot hold") from exc
        # a flat byte view: memoryview(arr).cast("B") raises on zero-size arrays
        if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise DataError(f"{path}: truncated payload for entry {name!r}")
        entries[name] = arr.astype(dtype.newbyteorder("="), copy=False)
    if f.tell() != size:
        raise DataError(f"{path}: {size - f.tell()} trailing bytes after last entry")
    return entries


# ---------------------------------------------------------------------------
# in-memory per-sample bundle


@dataclass
class SpotBatch:
    """Per-sample bundle of image features, expression, and coordinates."""

    sample_id: str
    patient_id: str
    local_feat: np.ndarray  # N x D_in
    neighbor_feat: np.ndarray  # N x T x D_in
    expression: np.ndarray  # N x M, preprocessed
    coords: np.ndarray  # N x 2 int (row, col)

    def __post_init__(self):
        n = self.local_feat.shape[0]
        for name in ("neighbor_feat", "expression", "coords"):
            other = getattr(self, name)
            if other.shape[0] != n:
                raise ShapeError(
                    f"sample {self.sample_id}: {name} has {other.shape[0]} spots, expected {n}"
                )
        if not np.all(np.isfinite(self.expression)) or np.any(self.expression < 0):
            raise DataError(f"sample {self.sample_id}: expression must be finite and >= 0")

    @property
    def n_spots(self) -> int:
        return self.local_feat.shape[0]

    @property
    def n_genes(self) -> int:
        return self.expression.shape[1]

    def take(self, indices) -> "SpotBatch":
        """Subset the batch by spot indices (used for minibatching)."""
        return SpotBatch(
            sample_id=self.sample_id,
            patient_id=self.patient_id,
            local_feat=self.local_feat[indices],
            neighbor_feat=self.neighbor_feat[indices],
            expression=self.expression[indices],
            coords=self.coords[indices],
        )


# ---------------------------------------------------------------------------
# preprocessing

COUNT_SCALE = 1e4  # a spot's counts sum to this after normalization, before log1p


@dataclass
class PreprocessResult:
    expression: np.ndarray  # kept spots x selected genes
    keep_mask: np.ndarray  # boolean over input spots
    n_dropped: int


def preprocess_expression(raw_counts: np.ndarray, column_names: list[str],
                          gene_list: list[str]) -> PreprocessResult:
    """Select genes, normalize per spot, log-transform.

    Each spot's counts are scaled by ``COUNT_SCALE / total`` where the total
    runs over ALL columns (before selection), then mapped through log(1 + x).
    Zero-total spots are dropped and counted; negative or non-finite counts
    raise, as do counts so large that a total or a scaled count overflows.
    """
    index = {name: i for i, name in enumerate(column_names)}
    missing = [g for g in gene_list if g not in index]
    if missing:
        raise DataError(f"genes not present in the count matrix: {missing}")
    raw = np.asarray(raw_counts, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != len(column_names):
        raise ShapeError(
            f"count matrix has shape {raw.shape}, expected N x {len(column_names)}"
        )
    if not np.all(np.isfinite(raw)) or np.any(raw < 0):
        raise DataError("counts must be finite and >= 0")
    cols = [index[g] for g in gene_list]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        totals = raw.sum(axis=1)
        keep = totals > 0
        selected = raw[keep][:, cols]
        expr = np.log1p(COUNT_SCALE * selected / totals[keep, None])
    if not (np.all(totals < np.inf) and np.all(expr < np.inf)):
        raise DataError(f"counts must be small enough to normalize, largest {float(raw.max())}")
    return PreprocessResult(expr, keep, int((~keep).sum()))


# ---------------------------------------------------------------------------
# manifest / study loading

_STUDY_KEYS = {"columns", "genes"}
_SAMPLE_KEYS = {"patient", "local", "neighbor", "expression", "coords"}


def read_text(path, error: type[Exception] = DataError) -> str:
    """A UTF-8 text file's contents; ``error`` if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _ini_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    return parser


def read_ini(path, error: type[Exception] = DataError) -> configparser.ConfigParser:
    """A manifest, run config or spec: case-kept keys, no interpolation."""
    parser = _ini_parser()
    try:
        parser.read_string(read_text(path, error), source=str(path))
    except configparser.Error as exc:
        raise error(f"malformed {path}: {exc}") from exc
    return parser


def write_ini(path, sections: dict[str, dict]) -> None:
    """Write section -> {key: value} in the dialect ``read_ini`` reads; values go through str()."""
    parser = _ini_parser()
    parser.read_dict(sections)
    with open(path, "w") as f:
        parser.write(f)


def read_gene_list(path) -> list[str]:
    """One name per line, blank and ``#`` lines skipped; a repeated name raises."""
    lines = [ln.strip() for ln in read_text(path).splitlines()]
    names = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(set(names)) < len(names):
        raise DataError(f"{path}: repeated name {Counter(names).most_common(1)[0][0]!r}")
    return names


def write_gene_list(path, names: list[str]) -> None:
    Path(path).write_text("".join(f"{n}\n" for n in names))


def read_coords(path) -> tuple[list[str], np.ndarray]:
    """Read a tab-separated (spot_id, row, col) table with header."""
    lines = read_text(path).splitlines()
    if not lines or lines[0].split("\t") != ["spot_id", "row", "col"]:
        raise DataError(f"{path}: expected header 'spot_id\\trow\\tcol'")
    ids, rows = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}: malformed coordinate line {ln!r}")
        try:
            row = (int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise DataError(f"{path}: non-integer row or col in {ln!r}") from exc
        if not all(-(2**31) <= v < 2**31 for v in row):
            raise DataError(f"{path}: line {lineno}: row or col outside int32 in {ln!r}")
        rows.append(row)
        ids.append(parts[0])
    return ids, np.array(rows, dtype=np.int32).reshape(len(rows), 2)


def write_coords(path, spot_ids: list[str], coords: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("spot_id\trow\tcol\n")
        for sid, (r, c) in zip(spot_ids, coords):
            f.write(f"{sid}\t{int(r)}\t{int(c)}\n")


def study_genes(manifest_path) -> tuple[Path, list[str]]:
    """A manifest's ``[study] genes`` file and the genes it selects (at least one)."""
    return _study_files(read_ini(manifest_path), Path(manifest_path))[1:]


def _study_files(parser, manifest_path: Path) -> tuple[Path, Path, list[str]]:
    """The ``[study]`` columns and genes files, and the genes selected (at least one)."""
    if "study" not in parser:
        raise DataError(f"{manifest_path}: missing [study] section")
    study = parser["study"]
    unknown = set(study) - _STUDY_KEYS
    if unknown:
        raise DataError(f"{manifest_path}: unknown study keys {sorted(unknown)}")
    missing = _STUDY_KEYS - set(study)
    if missing:
        raise DataError(f"{manifest_path}: [study] missing keys {sorted(missing)}")
    columns, genes = (manifest_path.parent / study[key] for key in ("columns", "genes"))
    names = read_gene_list(genes)
    if not names:
        raise DataError(f"{genes}: selects no genes")
    return columns, genes, names


def load_study(manifest_path) -> list[SpotBatch]:
    """Load every sample in a manifest, cross-checking dimensions.

    Image features must be finite and counts finite and >= 0, and every sample
    must have the first sample's feature dimension and neighbor-token count,
    neither of which may be 0.
    Zero-total spots are dropped during preprocessing.
    """
    manifest_path = Path(manifest_path)
    parser = read_ini(manifest_path)
    sample_sections = [s for s in parser.sections() if s.startswith("sample:")]
    if not sample_sections:
        return []
    columns_file, _, gene_list = _study_files(parser, manifest_path)
    column_names = read_gene_list(columns_file)
    base = manifest_path.parent

    batches = []
    first = None
    for section in sample_sections:
        sid = section.split(":", 1)[1]
        entry = parser[section]
        unknown = set(entry) - _SAMPLE_KEYS
        if unknown:
            raise DataError(f"{manifest_path}: unknown keys {sorted(unknown)} in [{section}]")
        missing = _SAMPLE_KEYS - set(entry)
        if missing:
            raise DataError(f"{manifest_path}: [{section}] missing keys {sorted(missing)}")

        local_path = base / entry["local"]
        neighbor_path = base / entry["neighbor"]
        expr_path = base / entry["expression"]
        local = _expect_entry(local_path, "local", ndim=2)
        neighbor = _expect_entry(neighbor_path, "neighbor", ndim=3)
        counts = _expect_entry(expr_path, "counts", ndim=2)
        spot_ids, coords = read_coords(base / entry["coords"])

        n = local.shape[0]
        for label, arr, path in (
            ("neighbor", neighbor, neighbor_path),
            ("counts", counts, expr_path),
            ("coords", coords, base / entry["coords"]),
        ):
            if arr.shape[0] != n:
                raise DataError(
                    f"{path}: {label} has {arr.shape[0]} spots, expected {n} (from {local_path})"
                )
        if counts.shape[1] != len(column_names):
            raise DataError(
                f"{expr_path}: {counts.shape[1]} gene columns, expected {len(column_names)}"
            )
        if first is None:  # every sample must have the first one's per-spot shapes
            for path, size, what in ((local_path, local.shape[1], "feature width"),
                                     (neighbor_path, neighbor.shape[1], "neighbor-token count")):
                if size == 0:
                    raise DataError(f"{path}: {what} is 0, must be >= 1")
            first = sid, local.shape[1:], (neighbor.shape[1], local.shape[1])
        for path, arr, want in ((local_path, local, first[1]), (neighbor_path, neighbor, first[2])):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"{path}: image features must be finite")
            if arr.shape[1:] != want:
                raise DataError(f"{path}: per-spot shape {arr.shape[1:]}, "
                                f"expected {want} as in sample {first[0]}")

        try:  # preprocessing errors name no file
            batches.append(_spot_batch(
                sid, entry["patient"], local, neighbor, counts, coords, column_names, gene_list
            ))
        except DataError as exc:
            raise DataError(f"{expr_path}: {exc}") from None
    return batches


def _spot_batch(sid, patient, local, neighbor, counts, coords, column_names, gene_list):
    """Preprocess one sample's counts and keep the spots that survive."""
    pre = preprocess_expression(counts, column_names, gene_list)
    if pre.n_dropped:
        warnings.warn(f"sample {sid}: dropped {pre.n_dropped} zero-total spots")
    keep = pre.keep_mask if pre.n_dropped else slice(None)  # a view, not a copy, of every spot
    return SpotBatch(
        sample_id=sid,
        patient_id=patient,
        local_feat=np.asarray(local[keep], dtype=np.float64),
        neighbor_feat=np.asarray(neighbor[keep], dtype=np.float64),
        expression=pre.expression,
        coords=coords[keep],
    )


def _expect_entry(path, name: str, ndim: int) -> np.ndarray:
    entries = read_container(path)
    if name not in entries:
        raise DataError(f"{path}: missing entry {name!r}")
    arr = entries[name]
    if arr.ndim != ndim:
        raise DataError(f"{path}: entry {name!r} has rank {arr.ndim}, expected {ndim}")
    return arr


# ---------------------------------------------------------------------------
# synthetic coupled-modality generator


@dataclass
class SynthSpec:
    """Scale and coupling knobs for the synthetic study generator.

    ``n_clusters > 0`` draws the latent field from spatially contiguous
    domains (nearest of ``n_clusters`` seed locations on the grid), mixing a
    shared domain center into each spot's latent at ``cluster_strength``.
    This gives both modalities a common group structure, as tissue domains
    do for morphology and expression programs.
    """

    n_spots: int = 400
    n_slides: int = 2
    latent_dim: int = 8
    n_genes: int = 60
    rho: float = 0.8  # feature-expression coupling strength
    sigma: float = 0.3  # feature noise level
    seed: int = 0
    d_in: int = 64
    neighbor_grid: int = 5
    count_scale: float = 20.0
    n_clusters: int = 0
    cluster_strength: float = 0.7

    def __post_init__(self):
        check_fields(self, (("n_spots", 1), ("n_slides", 1), ("latent_dim", 1), ("n_genes", 1),
                            ("d_in", 1), ("neighbor_grid", 1), ("n_clusters", 0), ("seed", 0),
                            ("sigma", 0)))
        if not 0.0 <= self.rho <= 1.0:
            raise ContractError(f"rho must be in [0, 1], got {self.rho}")
        if self.count_scale <= 0.0:
            raise ContractError(f"count_scale must be > 0, got {self.count_scale}")
        if self.neighbor_grid % 2 != 1:
            raise ContractError("neighbor_grid must be odd")
        if not 0.0 <= self.cluster_strength < 1.0:
            raise ContractError("cluster_strength must be in [0, 1)")


@dataclass
class SynthSample:
    sample_id: str
    patient_id: str
    coords: np.ndarray  # N x 2 int
    local: np.ndarray  # N x d_in
    neighbor: np.ndarray  # N x grid^2 x d_in
    counts: np.ndarray  # N x M raw counts
    latents: np.ndarray  # N x latent_dim ground truth
    domains: np.ndarray | None = None  # N domain labels when clustered


@dataclass
class SynthStudy:
    samples: list[SynthSample]
    column_names: list[str]
    gene_list: list[str]


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _spot_grid(n_spots: int, neighbor_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (row, col) of the spots on the smallest square grid, and the (grid², N)
    stencil of neighbor spots: offsets row-major, a cell with no spot is the spot itself."""
    side = math.ceil(math.sqrt(n_spots))
    spot = np.arange(n_spots)
    row, col = np.divmod(spot, side)
    steps = np.arange(-(neighbor_grid // 2), neighbor_grid // 2 + 1)
    r = row + np.repeat(steps, steps.size)[:, None]
    c = col + np.tile(steps, steps.size)[:, None]
    cell = r * side + c
    stencil = np.where((r >= 0) & (c >= 0) & (c < side) & (cell < n_spots), cell, spot)
    return np.stack([row, col], axis=1).astype(np.int32), stencil


def synth_generate(spec: SynthSpec) -> SynthStudy:
    """Draw a coupled image-feature / expression study.

    Per spot a latent z drives both modalities: local features are a linear
    map of z, neighbor tokens mix z with the neighboring spot's latent over
    the stencil, and expression rates blend softplus(W_G z) with independent
    noise at coupling rho before Poisson sampling.
    """
    wrng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    w_local = wrng.normal(size=(spec.latent_dim, spec.d_in)) / math.sqrt(spec.latent_dim)
    w_neighbor = wrng.normal(size=(spec.latent_dim, spec.d_in)) / math.sqrt(spec.latent_dim)
    w_gene = wrng.normal(size=(spec.latent_dim, spec.n_genes)) / math.sqrt(spec.latent_dim)
    domain_centers = (
        wrng.normal(size=(spec.n_clusters, spec.latent_dim)) if spec.n_clusters else None
    )

    grid, stencil = _spot_grid(spec.n_spots, spec.neighbor_grid)
    side = math.ceil(math.sqrt(spec.n_spots))

    samples = []
    for slide in range(spec.n_slides):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1, slide]))
        coords = grid.copy()
        z = rng.normal(size=(spec.n_spots, spec.latent_dim))
        domains = None
        if domain_centers is not None:
            # contiguous domains: label each spot by its nearest seed location
            seeds = rng.integers(0, side, size=(spec.n_clusters, 2))
            dist = ((coords[:, None, :].astype(float) - seeds[None, :, :]) ** 2).sum(axis=-1)
            domains = dist.argmin(axis=1)
            w = spec.cluster_strength
            z = math.sqrt(w) * domain_centers[domains] + math.sqrt(1.0 - w) * z

        local = z @ w_local + spec.sigma * rng.normal(size=(spec.n_spots, spec.d_in))

        neighbor = np.empty((spec.n_spots, len(stencil), spec.d_in))
        for t, nb_index in enumerate(stencil):
            mixed = 0.5 * (z + z[nb_index])
            neighbor[:, t, :] = mixed @ w_neighbor + spec.sigma * rng.normal(
                size=(spec.n_spots, spec.d_in)
            )

        signal = _softplus(z @ w_gene)
        independent = _softplus(rng.normal(size=(spec.n_spots, spec.n_genes)))
        rate = spec.rho * signal + (1.0 - spec.rho) * independent
        counts = rng.poisson(spec.count_scale * rate).astype(np.int32)

        samples.append(
            SynthSample(
                sample_id=f"S{slide:02d}",
                patient_id=f"P{slide:02d}",
                coords=coords,
                local=local,
                neighbor=neighbor,
                counts=counts,
                latents=z,
                domains=domains,
            )
        )

    column_names = [f"gene_{i:04d}" for i in range(spec.n_genes)]
    return SynthStudy(
        samples=samples,
        column_names=column_names,
        gene_list=list(column_names),
    )


def batches_from_study(study: SynthStudy) -> list[SpotBatch]:
    """Preprocess a synthetic study into per-sample SpotBatches."""
    return [
        _spot_batch(
            s.sample_id, s.patient_id, s.local, s.neighbor, s.counts, s.coords,
            study.column_names, study.gene_list,
        )
        for s in study.samples
    ]


def write_study(study: SynthStudy, out_dir) -> Path:
    """Write a study to disk in manifest form; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_gene_list(out / "columns.txt", study.column_names)
    write_gene_list(out / "genes.txt", study.gene_list)

    sections = {"study": {"columns": "columns.txt", "genes": "genes.txt"}}
    for s in study.samples:
        write_container(out / f"{s.sample_id}_local.gdml", {"local": s.local})
        write_container(out / f"{s.sample_id}_neighbor.gdml", {"neighbor": s.neighbor})
        write_container(out / f"{s.sample_id}_expression.gdml", {"counts": s.counts})
        spot_ids = [f"{s.sample_id}_spot{i:04d}" for i in range(s.coords.shape[0])]
        write_coords(out / f"{s.sample_id}_coords.tsv", spot_ids, s.coords)
        sections[f"sample:{s.sample_id}"] = {
            "patient": s.patient_id,
            "local": f"{s.sample_id}_local.gdml",
            "neighbor": f"{s.sample_id}_neighbor.gdml",
            "expression": f"{s.sample_id}_expression.gdml",
            "coords": f"{s.sample_id}_coords.tsv",
        }
    manifest = out / "manifest.ini"
    write_ini(manifest, sections)
    return manifest
