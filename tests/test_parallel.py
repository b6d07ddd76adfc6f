"""Worker processes: the fork helper, and ``wtal train``'s two streams
trained in two processes, whose number changes no artifact and no
error."""

import functools
import json
import os
import pickle
import signal
import subprocess
import sys

import pytest

from wtal import basemodel, cli, consensus, parallel, synthdata
from wtal.config import LossConfig, ModelConfig, RefinementConfig
from wtal.consensus import run_refinement
from wtal.formats import DataError, NumericError




@pytest.fixture
def forks(monkeypatch):
    """The list of pids os.fork returned in this process."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


class TestForkMap:
    @pytest.mark.parametrize("processes", [1, 2, 3, 7, 9])
    def test_results_in_item_order(self, forks, processes,
                                   assert_no_child_left):
        items = list(range(7))
        out = parallel.fork_map(lambda i: (i, os.getpid()), items, processes,
                                str)
        assert_no_child_left()
        assert [i for i, _ in out] == items
        n = min(processes, len(items))
        assert len(forks) == n - 1
        # item i is computed by worker i % n; worker 0 is this process
        assert [pid for _, pid in out] == [
            ([os.getpid()] + forks)[i % n] for i in items]

    def test_no_items(self, forks):
        assert parallel.fork_map(lambda i: i, [], 2, str) == []
        assert forks == []

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_lowest_indexed_failure_is_raised(self, processes,
                                              assert_no_child_left):
        def function(i):
            if i in (2, 3):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="^item 2$"):
            parallel.fork_map(function, list(range(6)), processes, str)
        assert_no_child_left()

    @pytest.mark.parametrize("death", ["signal", "exit"])
    def test_child_ending_without_report_is_data_error(self, death,
                                                       assert_no_child_left):
        parent = os.getpid()

        def function(i):
            if os.getpid() != parent:
                if death == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return i

        with pytest.raises(DataError) as info:
            parallel.fork_map(function, list(range(4)), 2,
                              lambda first: f"the worker of item {first}")
        assert_no_child_left()
        how = "signal 9" if death == "signal" else "exit status 0"
        assert str(info.value) == (f"the worker of item 1 ended with {how} "
                                   "before reporting")


def test_numeric_error_survives_pickling():
    error = NumericError("flow", 1, 2, "v3")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is NumericError
    assert str(copy) == str(error) == ("non-finite loss: stream=flow "
                                       "iteration=1 epoch=2 video=v3")
    assert (copy.stream, copy.iteration, copy.epoch, copy.video_id) == \
        ("flow", 1, 2, "v3")


# ---------------------------------------------------------------------------
# wtal train's stream workers

@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A saved dataset small enough that training falls below the fork
    threshold, so only set_cpus makes it fork."""
    root = tmp_path_factory.mktemp("stream_workers")
    synthdata.save(synthdata.generate(synthdata.GeneratorConfig(
        num_train=5, num_test=2, num_classes=3, feature_dim=8,
        t_range=(15, 25), actions_per_video=(1, 2), seed=7)),
        root / "data")
    return root / "data"


def train_argv(data_dir, out, config):
    return ["train", "--config", str(config), "--dataset", str(data_dir),
            "--out", str(out), "--seed", "3", "--dump-pseudo-gt"]


def write_config(path, kind):
    path.write_text(json.dumps({"refinement": {
        "iterations": 2, "epochs_initial": 3, "epochs_refine": 2,
        "kind": kind}}))
    return path


def run_files(out):
    """Every file of a training run by relative path, but the resolved
    config, which records the output directory."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "resolved_config.json"}




def record_results(monkeypatch, results):
    """Make cli's training append each RefinementResult to ``results``."""
    def run(*args):
        results.append(run_refinement(*args))
        return results[-1]

    monkeypatch.setattr(consensus, "run_refinement", run)


class TestStreamWorkers:
    @pytest.mark.parametrize("kind", ["hard", "soft"])
    def test_artifacts_do_not_depend_on_workers(self, data_dir, tmp_path,
                                                monkeypatch, forks, kind,
                                                set_cpus,
                                                assert_no_child_left):
        config = write_config(tmp_path / "config.json", kind)
        files, results = {}, []
        record_results(monkeypatch, results)
        for workers in (1, 2):
            forks.clear()
            set_cpus(workers)
            out = tmp_path / f"workers-{workers}"
            assert cli.main(train_argv(data_dir, out, config)) == 0
            assert_no_child_left()
            # one worker per iteration, for the flow stream
            assert len(forks) == (3 if workers == 2 else 0)
            files[workers] = run_files(out)
        assert len(files[1]) == 6 + 1 + 2 * 5     # ckpts, log, pseudo GT
        assert files[2] == files[1]
        serial, forked = results
        for stream in consensus.STREAMS:
            assert forked.models[stream].flat.tobytes() == \
                serial.models[stream].flat.tobytes()
        assert forked.log_rows == serial.log_rows
        assert forked.checkpoint_meta == serial.checkpoint_meta

    def test_forks_safely_with_blas_threads_live(self, data_dir, tmp_path,
                                                 capsys, python_env,
                                                 set_cpus):
        """``wtal train`` in a fresh interpreter whose BLAS may start its
        own threads, and whose stdout is a block-buffered pipe. A worker
        that wrote out the inherited buffer, returned into the caller or
        ran the interpreter's exit handlers would add a line."""
        config = write_config(tmp_path / "config.json", "hard")
        script = (set_cpus(2) +
                  "import atexit, sys\n"
                  "from wtal import cli\n"
                  "print('before')\n"
                  "atexit.register(print, 'at exit')\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        out = tmp_path / "forked"
        proc = subprocess.run(
            [sys.executable, "-c", script,
             *train_argv(data_dir, out, config)],
            env=python_env(drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "PYTHONUNBUFFERED")),
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "before", "trained 3 iterations, wrote 6 checkpoints and "
            f"training_log.csv -> {out}", "at exit"]
        set_cpus(1)
        assert cli.main(train_argv(data_dir, tmp_path / "serial",
                                   config)) == 0
        capsys.readouterr()
        assert run_files(out) == run_files(tmp_path / "serial")

    def test_numeric_failure_in_the_worker_is_the_serial_one(self, data_dir,
                                                             tmp_path,
                                                             python_env,
                                                             set_cpus):
        """A non-finite flow loss, met in the worker, ends the run as the
        serial run ends: one stderr line, exit 3, no worker left."""
        config = write_config(tmp_path / "config.json", "hard")
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "from wtal import basemodel, cli\n"
            "real = basemodel.forward\n"
            "def forward(model, features):\n"
            "    fp = real(model, features)\n"
            "    if model.modality == 'flow':\n"
            "        fp.video_prediction[...] = np.nan\n"
            "    return fp\n"
            "basemodel.forward = forward\n"
            "code = cli.main(sys.argv[1:])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('a worker was left', file=sys.stderr)\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "sys.exit(code)\n")
        runs = [subprocess.run(
            [sys.executable, "-c", set_cpus(workers) + script,
             *train_argv(data_dir, tmp_path / f"w{workers}", config)],
            env=python_env(), capture_output=True, text=True, timeout=120)
            for workers in (1, 2)]
        serial, forked = [(r.returncode, r.stdout, r.stderr) for r in runs]
        assert forked == serial
        code, stdout, stderr = serial
        assert (code, stdout) == (3, "")
        assert stderr.count("\n") == 1
        assert stderr.startswith("numeric failure: non-finite loss: "
                                 "stream=flow iteration=0 epoch=0 video=")

    def test_worker_ending_without_report_is_data_error(
            self, data_dir, tmp_path, monkeypatch, capsys, set_cpus,
            assert_no_child_left):
        parent = os.getpid()
        real = basemodel.forward

        def forward(model, features):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(model, features)

        monkeypatch.setattr(basemodel, "forward", forward)
        set_cpus(2)
        config = write_config(tmp_path / "config.json", "hard")
        assert cli.main(train_argv(data_dir, tmp_path / "run", config)) == 2
        assert_no_child_left()
        assert capsys.readouterr().err == (
            "error: the training worker for stream flow ended with signal "
            "9 before reporting\n")

    @pytest.mark.parametrize("cpus, forked", [({0}, 0), ({0, 1}, 3),
                                              ({0, 1, 2, 3}, 3)])
    def test_default_uses_up_to_two_cpus(self, data_dir, tmp_path, forks,
                                         cpus, forked, set_cpus,
                                         assert_no_child_left):
        set_cpus(len(cpus))
        config = write_config(tmp_path / "config.json", "hard")
        assert cli.main(train_argv(data_dir, tmp_path / "run", config)) == 0
        assert_no_child_left()
        assert len(forks) == forked

    def test_forks_only_above_the_threshold(self, monkeypatch, forks,
                                            set_cpus):
        """An iteration forks when epochs x the train videos' snippets
        reach FORK_MIN_WORK."""
        videos = synthdata.generate(synthdata.GeneratorConfig(
            num_train=3, num_test=1, num_classes=3, feature_dim=8,
            t_range=(15, 25), seed=2)).train
        snippets = sum(v.num_snippets for v in videos)
        # iteration 0 has 3 epochs, iterations 1 and 2 have 2
        set_cpus(2)
        monkeypatch.setattr(consensus, "FORK_MIN_WORK", 3 * snippets)
        run = functools.partial(
            run_refinement, videos,
            ModelConfig(feature_dim=8, num_classes=3), LossConfig(),
            RefinementConfig(iterations=2, epochs_initial=3,
                             epochs_refine=2), 1)
        run()
        assert len(forks) == 1
        monkeypatch.setattr(consensus, "FORK_MIN_WORK", 3 * snippets + 1)
        forks.clear()
        run()
        assert forks == []
