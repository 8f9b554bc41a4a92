import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from eonjam.topology import nsfnet


@pytest.fixture(scope="session")
def nsf():
    return nsfnet()
