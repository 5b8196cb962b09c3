#include "sg/token_game.h"

#include <algorithm>

namespace tsg {

token_game::token_game(const signal_graph& sg) : sg_(sg)
{
    require(sg.finalized(), "token_game: graph must be finalized");
    reset();
}

void token_game::reset()
{
    tokens_.assign(sg_.arc_count(), 0);
    disengaged_.assign(sg_.arc_count(), false);
    fired_.assign(sg_.event_count(), 0);
    max_tokens_ = 0;
    for (arc_id a = 0; a < sg_.arc_count(); ++a)
        if (sg_.arc(a).marked) tokens_[a] = 1;
    max_tokens_ = sg_.arc_count() ? 1 : 0;
}

bool token_game::arc_engaged(arc_id a) const
{
    return !(sg_.arc(a).disengageable && disengaged_[a]);
}

bool token_game::enabled(event_id e) const
{
    // One-shot events fire exactly once.
    if (sg_.event(e).kind != event_kind::repetitive && fired_[e] > 0) return false;
    for (const arc_id a : sg_.structure().in_arcs(e))
        if (arc_engaged(a) && tokens_[a] == 0) return false;
    return true;
}

std::vector<event_id> token_game::enabled_events() const
{
    std::vector<event_id> out;
    for (event_id e = 0; e < sg_.event_count(); ++e)
        if (enabled(e)) out.push_back(e);
    return out;
}

void token_game::fire(event_id e)
{
    require(e < sg_.event_count(), "token_game::fire: bad event");
    if (!enabled(e))
        throw error("token_game::fire: event '" + sg_.event(e).name + "' is not enabled");

    for (const arc_id a : sg_.structure().in_arcs(e)) {
        if (!arc_engaged(a)) continue;
        --tokens_[a];
        if (sg_.arc(a).disengageable) disengaged_[a] = true;
    }
    for (const arc_id a : sg_.structure().out_arcs(e)) {
        ++tokens_[a];
        max_tokens_ = std::max(max_tokens_, tokens_[a]);
    }
    ++fired_[e];
}

} // namespace tsg
