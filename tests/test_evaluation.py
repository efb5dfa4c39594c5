"""Metric and protocol tests; expected values from explicit hand formulas."""

import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spotalign import cli, evaluation, render
from spotalign.errors import ContractError, ShapeError


def hand_pcc(y, yhat):
    """Independent evaluation of the correlation formula."""
    my, mp = sum(y) / len(y), sum(yhat) / len(yhat)
    num = sum((a - my) * (b - mp) for a, b in zip(y, yhat))
    den = math.sqrt(sum((a - my) ** 2 for a in y)) * math.sqrt(
        sum((b - mp) ** 2 for b in yhat)
    )
    return num / den


class TestPcc:
    def test_self_correlation(self):
        y = np.array([1.0, 2.0, 5.0])
        assert evaluation.pcc(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        y = np.array([1.0, 2.0, 5.0])
        assert evaluation.pcc(y, -y) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case(self):
        y, yhat = [1.0, 2.0, 3.0], [2.0, 4.0, 7.0]
        assert evaluation.pcc(y, yhat) == pytest.approx(hand_pcc(y, yhat), rel=1e-14)
        assert evaluation.pcc(y, yhat) == pytest.approx(0.9933992677987828, rel=1e-12)
        # the nearby integer-valued case with the memorable value
        assert evaluation.pcc(y, [2.0, 4.0, 8.0]) == pytest.approx(0.98198, abs=5e-6)

    def test_zero_variance_undefined(self):
        assert math.isnan(evaluation.pcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert math.isnan(evaluation.pcc([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))

    def test_too_short(self):
        with pytest.raises(ContractError):
            evaluation.pcc([1.0], [2.0])

    def test_extreme_magnitudes(self):
        y, yhat = np.array([1.0, 2.0, 5.0]), np.array([1.0, 2.0, 3.0])
        ref = evaluation.pcc(y, yhat)
        assert ref == pytest.approx(0.9607689228305228, rel=1e-15)
        for scale in 10.0 ** np.arange(-160, 301, 20):
            assert evaluation.pcc(y * scale, yhat) == pytest.approx(ref, rel=1e-15)
            assert evaluation.pcc(y, yhat * scale) == pytest.approx(ref, rel=1e-15)
            assert evaluation.pcc(y * scale, yhat * scale) == pytest.approx(ref, rel=1e-15)

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=4),
        st.floats(0.01, 50),
        st.floats(-20, 20),
    )
    # 1 + y rounds to a constant: the correlation of a*y+b is undefined
    @example(y=[0.0, 0.0, 0.0, 1.7e-149], a=1.0, b=1.0)
    # squares of these values are subnormal unless pcc rescales them
    @example(y=[1.198604372544933e-157, -4.4668812335311806e-184, 0.0, 0.0], a=1.7228825992771462, b=0.0)
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, y, a, b):
        y = np.array(y)
        rng = np.random.default_rng(0)
        yhat = rng.normal(size=4)
        base = evaluation.pcc(y, yhat)
        if math.isnan(base):
            return
        # pcc(a*y+b) equals pcc(y) only up to the float64 rounding of a*y+b.
        # Rounding a*y, adding b and centring each move an element by at most
        # 2**-53 of the largest magnitude involved, or by 2**-1075 where the
        # result is subnormal; `noise` is that amount in units of y.  A
        # perturbation of relative size e turns the centred vector by at most
        # asin(e), which moves the correlation by about e.  The bound allows a
        # factor of 4 per element and is never below 1e-12.  Once `noise`
        # nears the spread of y, a*y+b may round to a constant and no digit of
        # its correlation is left: the bound then exceeds 2 and any result,
        # NaN included, passes.
        u = 2.0**-53
        tiny = 2.0**-1022
        noise = u * (np.abs(y).max() + tiny + (np.abs(a * y).max() + np.abs(a * y + b).max() + tiny) / a)
        tol = max(1e-12, 4 * len(y) * noise / np.abs(y - y.mean()).max())
        for sign in (1, -1):
            got = evaluation.pcc(sign * a * y + b, yhat)
            assert abs(got - sign * base) <= tol or tol > 2.0


class TestMseMae:
    def test_identity(self):
        y = np.random.default_rng(1).normal(size=(3, 4))
        assert evaluation.mse_metric(y, y) == 0.0
        assert evaluation.mae_metric(y, y) == 0.0

    def test_scalar_case(self):
        assert evaluation.mse_metric([[1.0]], [[3.0]]) == 4.0
        assert evaluation.mae_metric([[1.0]], [[3.0]]) == 2.0

    def test_hand_matrix(self):
        y = np.zeros((2, 2))
        yhat = np.array([[1.0, -1.0], [0.0, 2.0]])
        assert evaluation.mse_metric(y, yhat) == pytest.approx(1.5)
        assert evaluation.mae_metric(y, yhat) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            evaluation.mse_metric(np.zeros((2, 2)), np.zeros((2, 3)))


def oracle_rank_genes(gene_pcc):
    """The original key-sort ranking: NaN last, descending PCC, ties by index."""
    m = gene_pcc.shape[0]
    order = sorted(
        range(m),
        key=lambda g: (1 if math.isnan(gene_pcc[g]) else 0, -(gene_pcc[g] if not math.isnan(gene_pcc[g]) else 0.0), g),
    )
    ranks = np.empty(m, dtype=np.int64)
    for position, g in enumerate(order):
        ranks[g] = position + 1
    return ranks


def oracle_select_hpg(mean_rank, top):
    """The original key-sort HPG order: ascending mean rank, ties by index."""
    return sorted(range(len(mean_rank)), key=lambda g: (mean_rank[g], g))[:top]


def tied_pccs(rng, m):
    """PCCs drawn mostly from a few values, so ties, NaNs and -0.0/0.0 pairs are common."""
    pool = np.array([np.nan, 0.0, -0.0, 0.5, -0.5, 1.0, -1.0])
    values = rng.choice(pool, size=m)
    fresh = rng.random(m) < 0.3
    values[fresh] = rng.uniform(-1, 1, size=int(fresh.sum()))
    return values


class TestRanks:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_key_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pccs = tied_pccs(rng, int(rng.integers(1, 40)))
        assert evaluation.rank_genes(pccs).tolist() == oracle_rank_genes(pccs).tolist()

    def test_signed_zero_ties_by_index(self):
        pccs = np.array([0.0, -0.0, np.nan, -0.0, 0.0])
        assert evaluation.rank_genes(pccs).tolist() == [1, 2, 5, 3, 4]
        assert oracle_rank_genes(pccs).tolist() == [1, 2, 5, 3, 4]

    def test_rank_order_and_nan_last(self):
        pccs = np.array([0.3, np.nan, 0.9, 0.3])
        ranks = evaluation.rank_genes(pccs)
        # gene 2 best, then the 0.3 tie broken by index, NaN last
        assert ranks.tolist() == [2, 4, 1, 3]

    def test_permutation_of_defined(self):
        rng = np.random.default_rng(2)
        pccs = rng.uniform(-1, 1, size=10)
        ranks = evaluation.rank_genes(pccs)
        assert sorted(ranks.tolist()) == list(range(1, 11))


def report_with_ranks(fold_id, ranks, pccs=None):
    ranks = np.asarray(ranks, dtype=np.int64)
    m = ranks.shape[0]
    if pccs is None:
        # consistent synthetic pcc vector: higher pcc for better rank
        pccs = 1.0 - (ranks - 1) / m
    report = evaluation.FoldReport(
        fold_id=fold_id, per_gene_pcc=np.asarray(pccs, dtype=np.float64), mse=0.1, mae=0.1
    )
    assert report.gene_rank.tolist() == ranks.tolist()
    return report


class TestSelectHpg:
    @pytest.mark.parametrize("seed", range(50))
    def test_matches_key_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        reports = [
            report_with_ranks(f, evaluation.rank_genes(tied_pccs(rng, m)))
            for f in range(int(rng.integers(1, 5)))
        ]
        mean_rank = np.mean([r.gene_rank for r in reports], axis=0)
        top = int(rng.integers(1, m + 1))
        assert evaluation.select_hpg(reports, top) == oracle_select_hpg(mean_rank, top)

    def test_single_fold_reduces_to_best_pcc_genes(self):
        rng = np.random.default_rng(3)
        pccs = rng.uniform(-1, 1, size=60)
        report = report_with_ranks(0, evaluation.rank_genes(pccs), pccs)
        hpg = evaluation.select_hpg([report], top=50)
        expected = sorted(range(60), key=lambda g: (-pccs[g], g))[:50]
        assert hpg == expected

    def test_rank_average_tie_by_index(self):
        # genes a, b swap ranks 1/3 across folds; c holds rank 2: all tie at 2.0
        r1 = report_with_ranks(0, [1, 3, 2])
        r2 = report_with_ranks(1, [3, 1, 2])
        assert evaluation.select_hpg([r1, r2], top=3) == [0, 1, 2]

    def test_output_size_and_distinct(self):
        rng = np.random.default_rng(4)
        reports = [
            report_with_ranks(f, evaluation.rank_genes(rng.uniform(-1, 1, size=250)))
            for f in range(4)
        ]
        hpg = evaluation.select_hpg(reports, top=50)
        assert len(hpg) == 50
        assert len(set(hpg)) == 50

    def test_fold_order_invariance(self):
        rng = np.random.default_rng(5)
        reports = [
            report_with_ranks(f, evaluation.rank_genes(rng.uniform(-1, 1, size=30)))
            for f in range(3)
        ]
        a = evaluation.select_hpg(reports, top=10)
        b = evaluation.select_hpg(reports[::-1], top=10)
        assert a == b

    def test_top_too_large(self):
        with pytest.raises(ContractError):
            evaluation.select_hpg([report_with_ranks(0, [1, 2])], top=3)


class TestFoldReportAndAggregate:
    def test_per_sample_averaging(self):
        rng = np.random.default_rng(6)
        t1, p1 = rng.normal(size=(10, 3)), rng.normal(size=(10, 3))
        t2, p2 = rng.normal(size=(12, 3)), rng.normal(size=(12, 3))
        report = evaluation.build_fold_report(0, [(t1, p1), (t2, p2)])
        for g in range(3):
            expected = 0.5 * (
                evaluation.pcc(t1[:, g], p1[:, g]) + evaluation.pcc(t2[:, g], p2[:, g])
            )
            assert report.per_gene_pcc[g] == pytest.approx(expected, rel=1e-12)
        assert report.mse == pytest.approx(
            0.5 * (evaluation.mse_metric(t1, p1) + evaluation.mse_metric(t2, p2))
        )

    def test_identical_folds_zero_std(self):
        r = report_with_ranks(0, [1, 2, 3])
        summary = evaluation.aggregate([r, report_with_ranks(1, [1, 2, 3])], hpg=[0, 1])
        assert summary["pcc_a"][1] == 0.0
        assert summary["mse"][1] == 0.0

    def test_mean_across_folds(self):
        r1 = report_with_ranks(0, [1, 2], pccs=[0.3, 0.3])
        r2 = report_with_ranks(1, [1, 2], pccs=[0.5, 0.5])
        summary = evaluation.aggregate([r1, r2], hpg=[0])
        assert list(summary) == ["mse", "mae", "pcc_a", "pcc_h"]
        assert summary["pcc_a"][0] == pytest.approx(0.4)

    def test_undefined_excluded_and_counted(self):
        r = report_with_ranks(0, [1, 3, 2], pccs=[0.8, np.nan, 0.4])
        summary = evaluation.aggregate([r], hpg=[0, 1])
        assert r.n_undefined == 1
        assert summary["pcc_a"][0] == pytest.approx(0.6)  # mean of defined only
        assert summary["pcc_h"][0] == pytest.approx(0.8)  # NaN gene excluded from HPG mean

    def test_csv_roundtrip(self, tmp_path):
        r1 = report_with_ranks(0, [1, 2], pccs=[0.3, 0.2])
        r2 = report_with_ranks(1, [2, 1], pccs=[0.1, 0.6])
        hpg = evaluation.select_hpg([r1, r2], top=2)
        summary = evaluation.aggregate([r1, r2], hpg)
        path = tmp_path / "report.csv"
        evaluation.write_report_csv(path, [r1, r2], summary, hpg)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["fold", "metric", "value"]
        values = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert float(values[("summary", "pcc_a")]) == pytest.approx(summary["pcc_a"][0])
        assert float(values[("0", "mse")]) == pytest.approx(0.1)

    def test_report_bytes(self, tmp_path, capsys):
        # 52 genes, so the 50 HPG genes leave out the last two; gene 1 is
        # undefined in fold 0 and ranks 27th on average
        tail = [0.25] * 48 + [-0.5, -0.5]
        reports = [
            evaluation.FoldReport(0, np.array([0.5, np.nan, *tail]), mse=0.5, mae=0.25),
            evaluation.FoldReport(1, np.array([0.75, 0.5, *tail]), mse=1.0, mae=0.75),
        ]
        cli._write_reports(tmp_path, reports)
        hpg = " ".join(map(str, [0, *range(2, 27), 1, *range(27, 50)]))
        assert (tmp_path / "report.csv").read_bytes().decode().split("\r\n") == [
            "fold,metric,value",
            "0,mse,0.5",
            "0,mae,0.25",
            "0,pcc_a,0.22549019607843138",  # 11.5 / 51
            "0,undefined_genes,1",
            "1,mse,1.0",
            "1,mae,0.75",
            "1,pcc_a,0.23557692307692307",  # 12.25 / 52
            "1,undefined_genes,0",
            "summary,mse,0.75",
            "summary,mse_std,0.25",
            "summary,mae,0.5",
            "summary,mae_std,0.25",
            "summary,pcc_a,0.23053355957767724",
            "summary,pcc_a_std,0.005043363499245848",
            "summary,pcc_h,0.2600510204081633",  # mean of 12.5 / 49 and 13.25 / 50
            "summary,pcc_h_std,0.0049489795918367385",
            f"summary,hpg,{hpg}",
            "",
        ]
        text = (
            "fold 0: mse=0.500000 mae=0.250000 pcc_a=0.225490 undefined=1/52\n"
            "fold 1: mse=1.000000 mae=0.750000 pcc_a=0.235577 undefined=0/52\n"
            "summary: mse=0.750000±0.250000 mae=0.500000±0.250000 "
            "pcc_a=0.230534±0.005043 pcc_h=0.260051±0.004949\n"
        )
        assert (tmp_path / "summary.txt").read_text() == text
        assert capsys.readouterr().out == text


class TestHexRender:
    def test_title_from_user_files_is_escaped(self):
        svg = render.render_hex_svg(np.array([[0, 0]]), np.array([1.0]), title='S"1 A&B<1>')
        text = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
        assert text == ['S"1 A&B<1>']

    def test_polygon_count_and_fills(self, tmp_path):
        coords = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int32)
        values = np.array([0.0, 5.0, 10.0])
        path = tmp_path / "out.svg"
        svg = render.render_hex_svg(coords, values, path)
        assert path.read_text() == svg
        root = ET.fromstring(svg)
        polys = [el for el in root.iter() if el.tag.endswith("polygon")]
        assert len(polys) == 3
        fills = [p.get("fill") for p in polys]
        assert fills == [render.value_to_color(t) for t in (0.0, 0.5, 1.0)]

    def test_constant_field_mid_scale(self):
        svg = render.render_hex_svg(np.array([[0, 0], [0, 1]]), np.array([2.0, 2.0]))
        root = ET.fromstring(svg)
        fills = {p.get("fill") for p in root.iter() if p.tag.endswith("polygon")}
        assert fills == {render.value_to_color(0.5)}

    def test_color_ramp_endpoints(self):
        assert render.value_to_color(0.0) == "#440154"
        assert render.value_to_color(1.0) == "#fde725"
        assert render.value_to_color(-1.0) == render.value_to_color(0.0)
        assert render.value_to_color(2.0) == render.value_to_color(1.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            render.render_hex_svg(np.zeros((3, 3)), np.zeros(3))
