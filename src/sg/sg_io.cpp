#include "sg/sg_io.h"

#include <fstream>
#include <sstream>

#include "graph/dot.h"
#include "sg/builder.h"
#include "util/strings.h"

namespace tsg {

namespace {

struct token {
    std::string text;
    std::size_t line;
};

std::vector<token> tokenize(const std::string& text)
{
    std::vector<token> tokens;
    std::size_t line = 1;
    std::string current;
    auto flush = [&] {
        if (!current.empty()) {
            tokens.push_back({current, line});
            current.clear();
        }
    };
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '#') { // comment to end of line
            flush();
            while (i < text.size() && text[i] != '\n') ++i;
            ++line;
            continue;
        }
        if (c == '\n') {
            flush();
            ++line;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            flush();
            continue;
        }
        if (c == '{' || c == '}' || c == ';') {
            flush();
            tokens.push_back({std::string(1, c), line});
            continue;
        }
        current += c;
    }
    flush();
    return tokens;
}

class parser {
public:
    explicit parser(const std::string& text) : tokens_(tokenize(text)) {}

    signal_graph run()
    {
        expect("tsg");
        name_ = next("graph name");
        expect("{");
        while (!peek_is("}")) {
            const token t = advance("item");
            if (t.text == "event") {
                builder_.event(next("event name"));
                expect(";");
            } else if (t.text == "arc") {
                parse_arc();
            } else {
                fail(t, "expected 'event' or 'arc'");
            }
        }
        expect("}");
        require(pos_ == tokens_.size(), "parse_sg: trailing tokens after '}'");
        return builder_.build();
    }

private:
    void parse_arc()
    {
        const std::string from = next("arc source");
        expect("->");
        const std::string to = next("arc target");
        rational delay(0);
        bool marked = false;
        bool once = false;
        while (!peek_is(";")) {
            const token t = advance("arc attribute");
            if (t.text == "delay") {
                delay = rational::parse(next("delay value"));
            } else if (t.text == "marked") {
                marked = true;
            } else if (t.text == "once") {
                once = true;
            } else {
                fail(t, "unknown arc attribute '" + t.text + "'");
            }
        }
        expect(";");
        builder_.arc_ex(from, to, delay, marked, once);
    }

    [[nodiscard]] bool peek_is(const std::string& text) const
    {
        return pos_ < tokens_.size() && tokens_[pos_].text == text;
    }

    token advance(const std::string& what)
    {
        if (pos_ >= tokens_.size())
            throw error("parse_sg: unexpected end of input, expected " + what);
        return tokens_[pos_++];
    }

    std::string next(const std::string& what) { return advance(what).text; }

    void expect(const std::string& text)
    {
        const token t = advance("'" + text + "'");
        if (t.text != text) fail(t, "expected '" + text + "'");
    }

    [[noreturn]] static void fail(const token& t, const std::string& message)
    {
        throw error("parse_sg: line " + std::to_string(t.line) + ": " + message + " (got '" +
                    t.text + "')");
    }

    std::vector<token> tokens_;
    std::size_t pos_ = 0;
    std::string name_;
    sg_builder builder_;
};

} // namespace

signal_graph parse_sg(const std::string& text)
{
    return parser(text).run();
}

signal_graph load_sg(const std::string& path)
{
    std::ifstream in(path);
    require(in.good(), "load_sg: cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_sg(buffer.str());
}

std::string write_sg(const signal_graph& sg, const std::string& name)
{
    std::ostringstream os;
    os << "tsg " << name << " {\n";
    for (event_id e = 0; e < sg.event_count(); ++e)
        os << "  event " << sg.event(e).name << ";\n";
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        if (!sg.arc_live(a)) continue;
        const arc_info& arc = sg.arc(a);
        os << "  arc " << sg.event(arc.from).name << " -> " << sg.event(arc.to).name;
        if (!arc.delay.is_zero()) os << " delay " << arc.delay.str();
        if (arc.marked) os << " marked";
        if (arc.disengageable) os << " once";
        os << ";\n";
    }
    os << "}\n";
    return os.str();
}

std::string sg_to_dot(const signal_graph& sg, const std::string& name)
{
    return to_dot(
        sg.structure(), [&](node_id v) { return sg.event(v).name; },
        [&](arc_id a) {
            const arc_info& arc = sg.arc(a);
            std::string label = arc.delay.str();
            if (arc.marked) label += " *";        // initial token (dot)
            if (arc.disengageable) label += " x"; // crossed arc
            return label;
        },
        name);
}

} // namespace tsg
