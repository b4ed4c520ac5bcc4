"""psforge: pseudospherical surfaces (K = -1) from sine-Gordon angle
fields, and back to Weierstrass-type potentials.

Pipeline: angle field -> extended frame and its Sym surface -> geometry
checks, and frame -> Birkhoff factors -> normalized x/y potentials, with
numerical factorization of twisted matrix Laurent loops.
"""

from . import algebra, cli, frames, loops, potentials, sinegordon, surfaces
from .errors import (BigCellViolation, IncompatibleCorner, NonconvergentCell,
                     NotSkew, PsforgeError, SingularAngle, StepFailure,
                     TruncationTooSmall, ZeroSpectralParameter)
from .frames import (ExtendedFrame, MaurerCartanForm, check_conditions_K,
                     compatibility_residual, flatness_residual, gauge,
                     integrate_frame, maurer_cartan, su2_frame)
from .loops import LaurentLoop, SampledLoop, birkhoff_split, loop_eval
from .potentials import (cross_check_split, eta_2x2, eta_x, eta_y,
                         integrate_minus, integrate_plus)
from .sinegordon import (AngleField, GridSpec, goursat_solve, sg_residual,
                         soliton_angle)
from .surfaces import (HarmonicityReport, SurfaceGeometry, associated_family,
                       export_mesh, fundamental_forms, gauss_map,
                       harmonicity_check, principal_curvatures)

__version__ = "0.1.0"
