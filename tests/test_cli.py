"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "hugetric"])
        assert args.k == 16 and args.tool == "Geographer"

    def test_scaling_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scaling", "diagonal"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Geographer" in out and "hugetric" in out and "fesom" in out

    def test_partition_instance(self, capsys):
        assert main(["partition", "delaunay2d_s", "-k", "4", "--scale", "0.05", "--tool", "RCB"]) == 0
        out = capsys.readouterr().out
        assert "RCB" in out and "totComm" in out

    def test_partition_with_shape(self, capsys):
        assert main(["partition", "delaunay2d_s", "-k", "4", "--scale", "0.05", "--shape"]) == 0
        assert "max_aspect" in capsys.readouterr().out

    def test_partition_unknown_instance(self):
        with pytest.raises(SystemExit, match="unknown instance"):
            main(["partition", "atlantis"])

    def test_partition_k_exceeds_n_exits_cleanly(self):
        with pytest.raises(SystemExit, match="repro partition: k=100000 exceeds the number of points"):
            main(["partition", "rgg2d", "--scale", "0.05", "-k", "100000"])

    @pytest.mark.parametrize("command", [
        ["partition", "rgg2d"],
        ["hierarchical", "rgg2d"],
        ["visualize", "rgg2d", "out.svg"],
        ["spmv", "rgg2d"],
    ])
    def test_unknown_tool_exits_cleanly(self, command, capsys):
        with pytest.raises(SystemExit, match="^2$"):  # argparse's usage-error status
            main([*command, "--tool", "nosuch"])
        assert "invalid choice: 'nosuch'" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="repro resume: no valid checkpoint"):
            main(["resume", str(tmp_path)])

    def test_unknown_kernel_backend_env_exits_cleanly(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "torch-cuda")
        with pytest.raises(SystemExit, match="REPRO_KERNEL_BACKEND: unknown kernel backend 'torch-cuda'"):
            main(["distributed", "rgg2d", "--scale", "0.05", "-k", "4", "-p", "2"])

    def test_partition_metis_file(self, tmp_path, capsys):
        from repro.mesh.grid import grid_mesh
        from repro.mesh.io import write_coords, write_metis

        mesh = grid_mesh((12, 12))
        gpath = str(tmp_path / "g.graph")
        write_metis(mesh, gpath)
        write_coords(mesh.coords, str(tmp_path / "g.xyz"))
        assert main(["partition", gpath, "-k", "4", "--tool", "HSFC"]) == 0
        assert "HSFC" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "NACA0015", "-k", "4", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        for tool in ("Geographer", "HSFC", "MultiJagged", "RCB", "RIB"):
            assert tool in out

    def test_visualize(self, tmp_path, capsys):
        out_path = str(tmp_path / "part.svg")
        assert main(["visualize", "hugetric", out_path, "-k", "4", "--scale", "0.05"]) == 0
        assert open(out_path).read().startswith("<svg")

    def test_scaling_weak(self, capsys):
        assert main(["scaling", "weak", "--ranks", "32", "128"]) == 0
        out = capsys.readouterr().out
        assert "p=32" in out and "p=128" in out

    def test_experiments_components(self, capsys):
        assert main(["experiments", "components"]) == 0
        assert "redistribute" in capsys.readouterr().out

    def test_hierarchical(self, capsys):
        assert main(["hierarchical", "delaunay2d_s", "--levels", "2x2",
                     "--scale", "0.05", "--tool", "RCB"]) == 0
        out = capsys.readouterr().out
        assert "level 0" in out and "level 1" in out and "k=4" in out

    def test_hierarchical_bad_levels(self):
        with pytest.raises(SystemExit, match="bad --levels"):
            main(["hierarchical", "delaunay2d_s", "--levels", "two-by-two", "--scale", "0.05"])

    def test_repartition(self, capsys):
        assert main(["repartition", "-n", "800", "-k", "4", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "iters warm" in out and "migr cold" in out
