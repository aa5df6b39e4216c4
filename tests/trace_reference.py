"""The reference a trace line is compared with: the step as a dict, written by ``json.dumps(..., sort_keys=True)``.

``cli.write_trace`` formats each line itself; the tests hold every line it writes equal to this dict's JSON.
"""

from rbtbench.env import StepRecord


def step_to_json(episode: int, step: StepRecord) -> dict:
    return {
        "episode": episode,
        "t": step.t,
        "observation": {
            "top": step.observation.placement.top,
            "left": step.observation.placement.left,
            "height": step.observation.placement.shape.height,
            "width": step.observation.placement.shape.width,
            "contents": list(step.observation.contents),
        },
        "belief": {str(s): float(p) for s, p in step.belief.items()},
        "belief_support_size": step.belief_support_size,
        "a_mix": sorted(step.a_mix),
        "a_max": sorted(step.a_max),
        "iou": step.iou,
        "margin": step.margin,
        "chosen_action": step.chosen_action,
        "reward": step.reward,
    }
