import hashlib
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"


def test_scaling_demo_output_is_pinned(package_env):
    # sha256 of the default run's stdout, recorded before derive_rng computed
    # its seeds in blocks; the four reports depend on every path's stream
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "scaling_demo.py")],
        env=package_env,
        capture_output=True,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == "d511f2e0a983fc036c86f9778aabbfd495ba6d13c96866a8cd598018a0c469d9"


def test_refinement_study_output_is_pinned(package_env):
    # sha256 of the stdout at 500 paths, which draws every refinement's plan
    # from one generator: the variances depend on every plan and every draw
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "refinement_study.py"), "--paths", "500"],
        env=package_env,
        capture_output=True,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == "e5e4fc13b72ccb24ec538612a0d33511bb2bb7b839b2ce3356815a5d98308650"


def test_scaling_demo_reports_unestimable_rows(package_env):
    # at 30 paths the |cf| floor 5/sqrt(30) is above most test points' |cf|
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "scaling_demo.py"), "--paths", "30"],
        env=package_env,
        capture_output=True,
        check=True,
        text=True,
    ).stdout
    lines = [line for line in out.splitlines() if "unestimable (" in line]
    assert lines and all(line.endswith("FAIL") and "below the floor" in line for line in lines)


def test_readme_quickstart_prints_a_full_pass(package_env):
    # the README's one python block: the library's public face
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    out = subprocess.run(
        [sys.executable, "-c", block], env=package_env, capture_output=True, check=True, text=True
    ).stdout
    assert out == "1.0\n"
