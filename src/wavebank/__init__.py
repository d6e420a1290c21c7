"""Orthogonal and biorthogonal wavelet filter banks via matrix functions on
the torus: design, verification, discrete transforms, and spectral checks."""

from .laurent import (
    LaurentPoly,
    MatLaurentPoly,
    SingularOnTorusError,
    DimensionMismatchError,
    is_unitary_on_torus,
    k1_class,
    winding_number,
)
from .filterbank import (
    BiorthPair,
    FilterBank,
    NonPolynomialInverseError,
    QmfReport,
    biorthogonality_residual,
    check_qmf,
    dual_filters,
    filters_from_polyphase,
    polyphase_from_filters,
)
from .design import (
    FactorizationError,
    LiftingStep,
    ProjectionParam,
    bank_from_projections,
    daubechies4,
    general_factor,
    lifting_factorize,
    lifting_recompose,
    lifting_step_on_filters,
    projection,
    six_tap_from_angles,
    unitary_from_projections,
)
from .operators import (
    PacketPartition,
    PyramidDecomposition,
    Signal,
    analyze,
    build_big_unitary,
    downsample,
    packet_decompose,
    packet_reconstruct,
    pyramid_decompose,
    pyramid_reconstruct,
    synthesize,
    upsample,
)
from .transfer import (
    SpectrumReport,
    TransferSpec,
    fixed_point_check,
    per_check,
    spectrum,
    subdivision_apply,
    transfer_apply,
    transfer_matrix,
)
from .cascade import (
    CascadeResult,
    GridFunction,
    cascade_step,
    expected_position,
    fourier_infinite_product,
    haar_telescoping,
    scaling_function,
    wavelet_from_scaling,
)

__version__ = "0.1.0"
