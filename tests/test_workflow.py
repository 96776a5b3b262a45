from pathlib import Path

from test_golden import CASES

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_the_golden_job_runs_every_golden_case():
    # the CI job that compares the reports on other Python versions lists
    # the command lines of test_golden.CASES itself, as it runs no pytest
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith("<<'EOF'"))
    end = next(i for i in range(start, len(lines)) if lines[i].strip() == "EOF")
    listed = {}
    for line in lines[start + 1 : end]:
        name, *argv = line.split()
        listed[name] = argv
    assert listed == CASES
