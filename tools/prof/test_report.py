#!/usr/bin/env python3
"""Tests of report.py's layer attribution: a pure function over name
stacks, so no binary, no dump and no addr2line are needed.

    python3 tools/prof/test_report.py
"""
import glob
import importlib.util
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("report", os.path.join(HERE, "report.py"))
report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report)
RULES = report.load_layers()


def read(path):
    with open(path) as f:
        return f.read()


def fixture():
    """The stacks of fixture.stacks: `((layer, sub-row), frames)`."""
    stacks = []
    for line in read(os.path.join(HERE, "fixture.stacks")).splitlines():
        if line.startswith("= "):
            layer, _, sub = line[2:].partition(" / ")
            stacks.append(((layer, sub or None), []))
        elif line and not line.startswith("#"):
            stacks[-1][1].append(line)
    return stacks


def fixture_with(frame):
    """The first fixture stack holding `frame`."""
    return next(stack for stack in fixture() if frame in stack[1])


def modules():
    """`(file, module path)` of every first-party Rust file that defines a
    function (a crate root that only re-exports holds no frame)."""
    out = []
    for src in glob.glob(os.path.join(ROOT, "crates/*/src")) + [
            os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark/src")]:
        toml = read(os.path.join(os.path.dirname(src), "Cargo.toml"))
        krate = re.search(r'^name = "([^"]+)"', toml, re.M).group(1).replace("-", "_")
        for path in glob.glob(os.path.join(src, "**/*.rs"), recursive=True):
            if not re.search(r"\bfn\b", read(path)):
                continue
            parts = os.path.relpath(path, src)[:-3].split(os.sep)
            if parts[0] == "bin":
                parts = parts[1:]  # a binary is a crate of its own name
                root = parts.pop(0)
            else:
                root = krate
            parts = [p for p in parts if p not in ("lib", "main", "mod")]
            out.append((os.path.relpath(path, ROOT), "::".join([root] + parts)))
    return out


class Layers(unittest.TestCase):
    def test_every_fixture_stack_is_charged_to_its_row(self):
        for want, frames in fixture():
            self.assertEqual(report.charge(frames, RULES), want, frames[0])

    def test_an_inlined_application_closure_is_application(self):
        want, frames = fixture_with("repseq_apps::ilink::Ilink::run::{{closure}}::{{closure}}")
        self.assertEqual(want, ("application", None))
        # A build without debuginfo sees no inlined frame: the sample
        # starts at the access path and is charged to the data plane.
        outer = frames[frames.index("repseq_dsm::shmem::ShArray<T>::with_slices_mut"):]
        self.assertEqual(report.charge(outer, RULES), ("data plane", None))

    def test_a_std_mutex_is_its_callers(self):
        want, frames = fixture_with("<std::sys::sync::mutex::futex::Mutex>::lock")
        self.assertEqual(want, ("kernel", None))
        self.assertIsNone(report.layer_of(frames[0], RULES))
        self.assertIsNone(report.layer_of("parking_lot::Mutex<T>::lock", RULES))

    def test_an_empty_stack_is_other(self):
        self.assertEqual(report.charge([], RULES), ("other", None))

    def test_own_paths(self):
        for name, want in [
            ("repseq_dsm::dataplane::<impl repseq_dsm::state::NodeState>::write_fault",
             "repseq_dsm::dataplane::write_fault"),
            ("core::ptr::drop_in_place<repseq_dsm::page::PageMeta>", "repseq_dsm::page::PageMeta"),
            ("<&mut repseq_sim::engine::Kernel<M> as core::ops::drop::Drop>::drop",
             "repseq_sim::engine::Kernel"),
            ("<repseq_dsm::state::NodeState>::write_fault", "repseq_dsm::state::NodeState"),
            ("<fn() -> u32 as core::ops::function::FnOnce<()>>::call_once", "fn() -> u32"),
            ("repseq_apps::kv::KvStore::run::{{closure}}", "repseq_apps::kv::KvStore::run::{{closure}}"),
        ]:
            self.assertEqual(report.own_path(name), want)

    def test_every_module_is_charged_to_a_row_that_is_not_other(self):
        mods = modules()
        self.assertGreater(len(mods), 60)
        for path, module in mods:
            frame = f"{module}::<impl repseq_dsm::state::NodeState>::f"
            self.assertNotEqual(report.charge([frame], RULES)[0], "other", path)


if __name__ == "__main__":
    unittest.main()
