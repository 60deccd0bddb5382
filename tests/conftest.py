import numpy as np
import pytest

# hypothesis's failure report imports mypy_extensions, whose TypedDict
# DeprecationWarning would turn a falsifying example into an INTERNALERROR.
_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def warnings_as_errors(test):
    """``filterwarnings("error")`` under an outermost ignore of the report
    hook's DeprecationWarning, so a failing example is still printed."""
    return pytest.mark.filterwarnings(_REPORT_WARNING)(pytest.mark.filterwarnings("error")(test))


# The worked nine-point data set used throughout the examples.
DEMO_VALUES = (3.0, 1.0, 3.0, 2.0, 4.0, 1.0, 3.0, 1.0, 2.0)


@pytest.fixture
def demo_data():
    return np.array(DEMO_VALUES)
