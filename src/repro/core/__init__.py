"""The accelerator itself: the paper's primary contribution.

Public surface:

* :class:`TransformerAccelerator` — Fig. 5 top level (functional + timing).
* :func:`schedule_mha` / :func:`schedule_ffn` — Algorithm 1 timelines.
* :class:`SystolicArray` / :class:`ScalarSystolicArray` — the s x 64 SA.
* :class:`SoftmaxModule` / :class:`LayerNormModule` — Fig. 6 / Fig. 8.
* Partitioning (Section III), memory, resource, power and cycle models.
"""

from .accelerator import AcceleratorOutput, TransformerAccelerator
from .cycle_model import (
    PAPER_CLOCK_MHZ,
    PAPER_FFN_CYCLES,
    PAPER_FFN_LATENCY_US,
    PAPER_FFN_SPEEDUP,
    PAPER_GPU_FFN_LATENCY_US,
    PAPER_GPU_MHA_LATENCY_US,
    PAPER_MHA_CYCLES,
    PAPER_MHA_LATENCY_US,
    PAPER_MHA_SPEEDUP,
    CycleBreakdown,
    ffn_cycle_breakdown,
    ffn_tile_bytes,
    mha_cycle_breakdown,
    mha_tile_bytes,
    paper_deviation,
    pass_busy_cycles,
    weight_pass_busy_cycles,
)
from .deployment import (
    ImageFFNBlock,
    ImageMHABlock,
    export_image,
    image_bytes,
    load_image,
    save_image,
)
from .energy import EnergyBreakdown, energy_per_token_uj, schedule_energy
from .layernorm_module import LayerNormModule, LayerNormTiming
from .memory import (
    BRAM36_BITS,
    BiasMemory,
    MemoryBank,
    WeightMemory,
    bram36_banks,
    data_memory_layout,
)
from .model_runner import (
    AcceleratedStack,
    StackReport,
)
from .partition import (
    QKTPlan,
    WeightBlock,
    partition_columns,
    partition_model_weights,
    plan_qkt,
    qkt_multiply_ratio,
    qkt_multiply_ratio_exact,
    reassemble_columns,
)
from .pe import ProcessingElement, flip_bit
from .postprocess import AdderBank, ReLUUnit
from .power_model import (
    PAPER_DYNAMIC_W,
    PAPER_STATIC_W,
    PAPER_TOTAL_W,
    PowerEstimate,
    energy_per_resblock_uj,
    estimate_power,
)
from .resource_model import (
    PAPER_TABLE2,
    XCVU13P,
    ResourceEstimate,
    accumulator_bits,
    estimate_layernorm,
    estimate_softmax,
    estimate_systolic_array,
    estimate_top,
    estimate_weight_memory,
    utilization_fractions,
)
from .scheduler import (
    ScheduleResult,
    TimelineEvent,
    schedule_autoregressive,
    schedule_encoder_layer,
    schedule_ffn,
    schedule_mha,
    schedule_model,
)
from .softmax_module import SoftmaxModule, SoftmaxTiming
from .streaming import StreamEvent, StreamingLayerNorm, StreamingSoftmax
from .systolic_array import (
    PassResult,
    PEFault,
    ScalarSystolicArray,
    SystolicArray,
    expected_pass_cycles,
    tiled_matmul,
)
from .trace import (
    TraceSpan,
    counter_events,
    schedule_to_trace_events,
    spans_to_trace_events,
    write_span_trace,
    write_trace,
)

__all__ = [
    "AcceleratedStack",
    "AcceleratorOutput",
    "AdderBank",
    "BRAM36_BITS",
    "BiasMemory",
    "CycleBreakdown",
    "EnergyBreakdown",
    "ImageFFNBlock",
    "ImageMHABlock",
    "LayerNormModule",
    "LayerNormTiming",
    "MemoryBank",
    "PAPER_CLOCK_MHZ",
    "PAPER_DYNAMIC_W",
    "PAPER_FFN_CYCLES",
    "PAPER_FFN_LATENCY_US",
    "PAPER_FFN_SPEEDUP",
    "PAPER_GPU_FFN_LATENCY_US",
    "PAPER_GPU_MHA_LATENCY_US",
    "PAPER_MHA_CYCLES",
    "PAPER_MHA_LATENCY_US",
    "PAPER_MHA_SPEEDUP",
    "PAPER_STATIC_W",
    "PAPER_TABLE2",
    "PAPER_TOTAL_W",
    "PEFault",
    "PassResult",
    "PowerEstimate",
    "ProcessingElement",
    "QKTPlan",
    "ReLUUnit",
    "ResourceEstimate",
    "ScalarSystolicArray",
    "ScheduleResult",
    "SoftmaxModule",
    "SoftmaxTiming",
    "StackReport",
    "StreamEvent",
    "StreamingLayerNorm",
    "StreamingSoftmax",
    "SystolicArray",
    "TimelineEvent",
    "TraceSpan",
    "TransformerAccelerator",
    "WeightBlock",
    "WeightMemory",
    "XCVU13P",
    "accumulator_bits",
    "bram36_banks",
    "counter_events",
    "data_memory_layout",
    "energy_per_resblock_uj",
    "energy_per_token_uj",
    "estimate_layernorm",
    "estimate_power",
    "estimate_softmax",
    "estimate_systolic_array",
    "estimate_top",
    "estimate_weight_memory",
    "expected_pass_cycles",
    "export_image",
    "image_bytes",
    "load_image",
    "ffn_cycle_breakdown",
    "ffn_tile_bytes",
    "flip_bit",
    "mha_cycle_breakdown",
    "mha_tile_bytes",
    "paper_deviation",
    "pass_busy_cycles",
    "partition_columns",
    "partition_model_weights",
    "plan_qkt",
    "qkt_multiply_ratio",
    "qkt_multiply_ratio_exact",
    "reassemble_columns",
    "save_image",
    "schedule_autoregressive",
    "schedule_encoder_layer",
    "schedule_energy",
    "schedule_ffn",
    "schedule_mha",
    "schedule_model",
    "schedule_to_trace_events",
    "spans_to_trace_events",
    "tiled_matmul",
    "utilization_fractions",
    "weight_pass_busy_cycles",
    "write_span_trace",
    "write_trace",
]
